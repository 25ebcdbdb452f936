package vm

import (
	"testing"

	"ufsclust/internal/sim"
)

// fakePager fills pages with a marker, counting faults.
type fakePager struct {
	v      *VM
	faults int
}

func (fp *fakePager) Fault(p *sim.Proc, obj Object, off int64) (*Page, error) {
	fp.faults++
	if pg, ok := fp.v.Lookup(obj, off); ok {
		pg.WaitUnbusy(p)
		return pg, nil
	}
	pg := fp.v.Alloc(p, obj, off)
	for i := range pg.Data {
		pg.Data[i] = byte(off >> 13)
	}
	pg.Unbusy()
	return pg, nil
}

func TestAddressSpaceFaultChain(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	v := New(s, nil, 8<<20)
	obj := &fakeObj{s: s}
	fp := &fakePager{v: v}
	as := NewAddressSpace(v)
	if _, err := as.Map(0, 4*PageSize, obj, 0, fp); err != nil {
		t.Fatal(err)
	}
	s.Spawn("toucher", func(p *sim.Proc) {
		// First touch of each page faults; repeats do not.
		for pass := 0; pass < 3; pass++ {
			for addr := int64(0); addr < 4*PageSize; addr += PageSize {
				pg, err := as.Touch(p, addr+5)
				if err != nil {
					t.Errorf("touch: %v", err)
					return
				}
				if pg.Data[0] != byte(addr>>13) {
					t.Errorf("wrong page at %d", addr)
				}
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fp.faults != 4 {
		t.Errorf("faults = %d, want 4 (one per page)", fp.faults)
	}
	if as.SoftTouches != 8 {
		t.Errorf("soft touches = %d, want 8", as.SoftTouches)
	}
}

func TestAddressSpaceSegmentation(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	v := New(s, nil, 8<<20)
	obj := &fakeObj{s: s}
	fp := &fakePager{v: v}
	as := NewAddressSpace(v)
	if _, err := as.Map(2*PageSize, 2*PageSize, obj, 0, fp); err != nil {
		t.Fatal(err)
	}
	// Overlap rejected.
	if _, err := as.Map(3*PageSize, PageSize, obj, 0, fp); err == nil {
		t.Fatal("overlapping mapping accepted")
	}
	s.Spawn("toucher", func(p *sim.Proc) {
		if _, err := as.Touch(p, 0); err == nil {
			t.Error("unmapped touch at 0 succeeded")
		}
		if _, err := as.Touch(p, 5*PageSize); err == nil {
			t.Error("unmapped touch past end succeeded")
		}
		if _, err := as.Touch(p, 2*PageSize); err != nil {
			t.Errorf("mapped touch failed: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTranslationDroppedWhenPageRecycled(t *testing.T) {
	// If the page behind a translation is stolen for another identity,
	// the next touch must re-fault rather than read the recycled frame.
	s := sim.New(1)
	t.Cleanup(s.Close)
	v := New(s, nil, 8<<20)
	obj := &fakeObj{s: s}
	fp := &fakePager{v: v}
	as := NewAddressSpace(v)
	if _, err := as.Map(0, PageSize, obj, 0, fp); err != nil {
		t.Fatal(err)
	}
	s.Spawn("toucher", func(p *sim.Proc) {
		pg, _ := as.Touch(p, 0)
		// Steal the page: free it and recycle under a new identity.
		v.Free(pg, true)
		other := &fakeObj{s: s}
		np := v.Alloc(p, other, 0)
		np.Unbusy()
		faults := fp.faults
		pg2, err := as.Touch(p, 0)
		if err != nil {
			t.Errorf("touch: %v", err)
			return
		}
		if fp.faults != faults+1 {
			t.Error("touch of recycled translation did not re-fault")
		}
		if pg2.Obj != Object(obj) {
			t.Error("touch returned a page belonging to another object")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmapRemovesSegment(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	v := New(s, nil, 8<<20)
	obj := &fakeObj{s: s}
	fp := &fakePager{v: v}
	as := NewAddressSpace(v)
	seg, err := as.Map(0, PageSize, obj, 0, fp)
	if err != nil {
		t.Fatal(err)
	}
	as.Unmap(seg)
	s.Spawn("toucher", func(p *sim.Proc) {
		if _, err := as.Touch(p, 0); err == nil {
			t.Error("touch after unmap succeeded")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
