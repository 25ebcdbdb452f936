package vm

import (
	"fmt"
	"sort"

	"ufsclust/internal/sim"
)

// This file models the fault path of the paper's Background section:
// "the kernel finds the address space associated with the process and
// calls the address fault handler ... the segment's fault handler
// converts the address into a <vnode, offset> pair and calls getpage of
// the associated file system." The mmap benchmark (Figure 12) runs
// through it.

// SegPager resolves a segment fault to a page: the file system's
// getpage entry as the segment driver sees it. A fault that cannot be
// resolved (an I/O error on the backing store) returns the error — the
// hardware analogue is a SIGBUS delivered to the toucher.
type SegPager interface {
	Fault(p *sim.Proc, obj Object, off int64) (*Page, error)
}

// Seg is a mapping of [Base, Base+Len) to an object starting at Off —
// the seg_vn segment driver's state.
type Seg struct {
	Base, Len int64
	Obj       Object
	Off       int64
	Pager     SegPager

	// translations records which pages currently have a valid MMU
	// translation in this mapping; a touch with a valid translation
	// does not fault.
	translations map[int64]*Page
}

// AddressSpace is a process's collection of segments.
type AddressSpace struct {
	VM   *VM
	segs []*Seg

	// Stats
	Faults, SoftTouches int64
}

// NewAddressSpace returns an empty address space over the VM system.
func NewAddressSpace(v *VM) *AddressSpace { return &AddressSpace{VM: v} }

// Map adds a segment mapping length bytes of obj (from objOff) at base.
// Overlapping mappings are rejected.
func (as *AddressSpace) Map(base, length int64, obj Object, objOff int64, pager SegPager) (*Seg, error) {
	if length <= 0 || base < 0 {
		return nil, fmt.Errorf("vm: bad mapping [%d,+%d)", base, length)
	}
	for _, s := range as.segs {
		if base < s.Base+s.Len && s.Base < base+length {
			return nil, fmt.Errorf("vm: mapping [%d,+%d) overlaps [%d,+%d)", base, length, s.Base, s.Len)
		}
	}
	seg := &Seg{Base: base, Len: length, Obj: obj, Off: objOff, Pager: pager,
		translations: make(map[int64]*Page)}
	as.segs = append(as.segs, seg)
	sort.Slice(as.segs, func(i, j int) bool { return as.segs[i].Base < as.segs[j].Base })
	return seg, nil
}

// Unmap removes a segment (by identity), dropping its translations.
func (as *AddressSpace) Unmap(seg *Seg) {
	for i, s := range as.segs {
		if s == seg {
			as.segs = append(as.segs[:i], as.segs[i+1:]...)
			return
		}
	}
}

// seg finds the segment containing addr.
func (as *AddressSpace) seg(addr int64) (*Seg, error) {
	i := sort.Search(len(as.segs), func(i int) bool { return as.segs[i].Base+as.segs[i].Len > addr })
	if i == len(as.segs) || addr < as.segs[i].Base {
		return nil, fmt.Errorf("vm: segmentation violation at %#x", addr)
	}
	return as.segs[i], nil
}

// Touch simulates a memory reference at addr: if the page has a valid
// translation it costs nothing here (the MMU resolves it); otherwise
// the fault chain runs — address space, segment, pager — and the
// translation is installed. It returns the page.
func (as *AddressSpace) Touch(p *sim.Proc, addr int64) (*Page, error) {
	seg, err := as.seg(addr)
	if err != nil {
		return nil, err
	}
	pageAddr := addr &^ (PageSize - 1)
	if pg, ok := seg.translations[pageAddr]; ok && !pg.onFree && pg.Obj == seg.Obj {
		// Valid translation: no fault. (A recycled page drops it.)
		as.SoftTouches++
		pg.Touch()
		return pg, nil
	}
	as.Faults++
	off := seg.Off + (pageAddr - seg.Base)
	pg, err := seg.Pager.Fault(p, seg.Obj, off)
	if err != nil {
		return nil, err
	}
	seg.translations[pageAddr] = pg
	return pg, nil
}
