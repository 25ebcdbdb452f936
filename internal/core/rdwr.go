package core

import (
	"fmt"

	"ufsclust/internal/cpu"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vm"
)

// Read is the ufs_rdwr read path: break the request into blocks, map
// each block into the kernel window (faulting through GetPage), copy to
// the caller, and unmap — applying free-behind on the unmap when the
// engine is configured for it.
func (f *File) Read(p *sim.Proc, off int64, buf []byte) (int, error) {
	e, vn := f.eng, f.vn
	sb := e.FS.SB
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset")
	}
	if err := vn.Err(); err != nil {
		return 0, err
	}
	e.charge(p, cpu.Syscall, cpu.SyscallInstr)

	// Further Work, "data in the inode": serve small files from the
	// in-core inode copy, skipping the map/fault/page machinery.
	if e.Cfg.InodeDataCache && vn.IP.D.Size <= InodeDataMax {
		if vn.inodeData == nil {
			// First touch: fill the cache through the normal path.
			pg, err := e.GetPage(p, vn, 0)
			if err != nil {
				return 0, err
			}
			if err := vn.Err(); err != nil {
				return 0, err
			}
			vn.inodeData = append([]byte(nil), pg.Data[:vn.IP.D.Size]...)
		} else {
			e.Stats.InodeDataHits++
		}
		if off >= vn.IP.D.Size {
			return 0, nil
		}
		n := copy(buf, vn.inodeData[off:])
		e.charge(p, cpu.Copy, cpu.CopyInstrPerByte*int64(n))
		return n, nil
	}

	total := 0
	for len(buf) > 0 && off < vn.IP.D.Size {
		boff := sb.Blkoff(off)
		n := int(sb.Bsize) - boff
		if n > len(buf) {
			n = len(buf)
		}
		if rem := vn.IP.D.Size - off; int64(n) > rem {
			n = int(rem)
		}

		// Map the block; the first touch faults. The request's total
		// remaining span travels down as the random-clustering hint.
		e.charge(p, cpu.MapUnmap, cpu.MapBlockInstr)
		e.charge(p, cpu.Fault, cpu.FaultInstr)
		hint := (boff + len(buf) + int(sb.Bsize) - 1) / int(sb.Bsize)
		pg, err := e.GetPageHint(p, vn, off-int64(boff), hint)
		if err != nil {
			return total, err
		}
		// The demand read for this page has completed (GetPage waits):
		// if it failed, the vnode error is latched by now.
		if err := vn.Err(); err != nil {
			return total, err
		}
		pg.Touch()

		e.charge(p, cpu.Copy, cpu.CopyInstrPerByte*int64(n))
		copy(buf[:n], pg.Data[boff:boff+n])

		// Unmap; free-behind triggers here.
		if boff+n == int(sb.Bsize) {
			e.freeBehind(vn, pg, off)
		}

		buf = buf[n:]
		off += int64(n)
		total += n
	}
	return total, nil
}

// freeBehind releases pg, the block a read at off has just finished
// with, when the paper's condition holds: "if the file is in sequential
// read mode, at a large enough offset, and free memory is close to the
// low water mark".
func (e *Engine) freeBehind(vn *Vnode, pg *vm.Page, off int64) {
	if e.Cfg.FreeBehind && vn.seq && off >= freeBehindMin &&
		e.VM.MemoryLow() && !pg.Dirty() && !pg.Busy() {
		e.VM.Free(pg, true)
		e.Stats.FreeBehinds++
		e.Bus.Emit(telemetry.Event{T: e.Sim.Now(), Kind: telemetry.EvFreeBehind, LBN: pg.Off / int64(e.FS.SB.Bsize), Blocks: 1})
	}
}

// segPager adapts the engine's getpage to the VM segment driver: the
// fault chain of the paper's Background section terminates here.
type segPager struct{ e *Engine }

// Fault implements vm.SegPager.
func (sp segPager) Fault(p *sim.Proc, obj vm.Object, off int64) (*vm.Page, error) {
	vn := obj.(*Vnode)
	sp.e.charge(p, cpu.Fault, cpu.FaultInstr)
	return sp.e.GetPage(p, vn, off)
}

// Mmap maps the whole file at address 0 of a fresh address space, as
// the Figure 12 benchmark program would.
func (f *File) Mmap(p *sim.Proc) (*vm.AddressSpace, *vm.Seg, error) {
	as := vm.NewAddressSpace(f.eng.VM)
	length := (f.vn.IP.D.Size + vm.PageSize - 1) &^ (vm.PageSize - 1)
	if length == 0 {
		length = vm.PageSize
	}
	seg, err := as.Map(0, length, f.vn, 0, segPager{f.eng})
	if err != nil {
		return nil, nil, err
	}
	return as, seg, nil
}

// ReadMmap is the mmap read path used by the Figure 12 CPU benchmark:
// map the file, touch every page through the address-space fault chain
// — no per-call syscall, no kernel window management, no copy out.
func (f *File) ReadMmap(p *sim.Proc, off int64, length int64) error {
	e, vn := f.eng, f.vn
	sb := e.FS.SB
	as, _, err := f.Mmap(p)
	if err != nil {
		return err
	}
	for length > 0 && off < vn.IP.D.Size {
		boff := sb.Blkoff(off)
		n := int64(int(sb.Bsize) - boff)
		if n > length {
			n = length
		}
		pg, err := as.Touch(p, off-int64(boff))
		if err != nil {
			return err
		}
		if boff+int(n) == int(sb.Bsize) {
			e.freeBehind(vn, pg, off)
		}
		off += n
		length -= n
	}
	return nil
}

// Write is the ufs_rdwr write path: allocate backing store, get the
// block's page (reading the old contents only for partial overwrites),
// copy the caller's data in, and hand the page to PutPage on unmap.
func (f *File) Write(p *sim.Proc, off int64, data []byte) (int, error) {
	e, vn := f.eng, f.vn
	sb := e.FS.SB
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset")
	}
	if err := vn.Err(); err != nil {
		return 0, err
	}
	e.charge(p, cpu.Syscall, cpu.SyscallInstr)
	vn.inodeData = nil // writes invalidate the inode data cache

	// FFS keeps fragments only in a file's last block: extending the
	// file past a fragmented tail must first expand that tail to a full
	// block (reading its current contents in, since the expansion may
	// relocate it).
	if oldSize := vn.IP.D.Size; oldSize > 0 && off+int64(len(data)) > oldSize {
		lastLbn := (oldSize - 1) / int64(sb.Bsize)
		tail := sb.BlkSize(oldSize, lastLbn)
		if lastLbn < ufs.NDADDR && tail < int(sb.Bsize) &&
			off+int64(len(data)) > (lastLbn+1)*int64(sb.Bsize) {
			e.charge(p, cpu.Fault, cpu.FaultInstr)
			pg, err := e.GetPage(p, vn, lastLbn*int64(sb.Bsize))
			if err != nil {
				return 0, err
			}
			if _, err := e.FS.BmapAlloc(p, vn.IP, lastLbn, int(sb.Bsize)); err != nil {
				return 0, err
			}
			// The block is whole now; round the size up to the block
			// boundary (the new bytes are zeros, about to be
			// overwritten or legitimately zero) so later allocations
			// see a full tail.
			vn.IP.D.Size = (lastLbn + 1) * int64(sb.Bsize)
			vn.IP.MarkDirty()
			pg.SetDirty()
			e.PutPage(p, vn, lastLbn*int64(sb.Bsize))
		}
	}

	total := 0
	for len(data) > 0 {
		boff := sb.Blkoff(off)
		n := int(sb.Bsize) - boff
		if n > len(data) {
			n = len(data)
		}
		lbn := sb.Lblkno(off)
		blockStart := off - int64(boff)

		// Size the allocation for this block: whole blocks everywhere
		// except a direct-range tail.
		endInBlock := boff + n
		allocSize := int(sb.Bsize)
		newEOF := off + int64(n)
		if newEOF >= vn.IP.D.Size && lbn < ufs.NDADDR && newEOF < (lbn+1)*int64(sb.Bsize) {
			if old := sb.BlkSize(vn.IP.D.Size, lbn); old > endInBlock {
				allocSize = old
			} else {
				allocSize = endInBlock
			}
		}
		_, err := e.FS.BmapAlloc(p, vn.IP, lbn, allocSize)
		if err != nil {
			return total, err
		}

		e.charge(p, cpu.MapUnmap, cpu.MapBlockInstr)
		e.charge(p, cpu.Fault, cpu.FaultInstr)

		// Partial overwrite of existing data needs the old contents;
		// a full-block write (or a write wholly beyond the old EOF)
		// does not.
		page, cached := e.VM.Lookup(vn, blockStart)
		e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
		needOld := (boff != 0 || n != int(sb.Bsize)) && blockStart < vn.IP.D.Size
		if cached {
			page.WaitUnbusy(p)
			e.Stats.CacheHits++
			if page.TakeRA() {
				e.Stats.RAHits++
			}
		} else if needOld {
			page, err = e.GetPage(p, vn, blockStart)
			if err != nil {
				return total, err
			}
		} else {
			page = e.VM.Alloc(p, vn, blockStart)
			for i := range page.Data {
				page.Data[i] = 0
			}
			page.Unbusy()
		}

		e.charge(p, cpu.Copy, cpu.CopyInstrPerByte*int64(n))
		copy(page.Data[boff:boff+n], data[:n])
		page.SetDirty()
		page.Touch()

		if newEOF > vn.IP.D.Size {
			vn.IP.D.Size = newEOF
			vn.IP.MarkDirty()
		}

		// Unmap: ufs_putpage is called to start the I/O.
		e.PutPage(p, vn, blockStart)

		data = data[n:]
		off += int64(n)
		total += n
	}
	return total, nil
}
