package ufs

import (
	"cmp"
	"fmt"
	"slices"

	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/wal"
)

// The write-ahead metadata log (internal/wal) is part of the on-disk
// format — Superblock.LogStart/LogFrags — so this package owns it from
// mkfs to recovery: Mkfs formats the region, Recover replays it before
// a restored image mounts, and Mount attaches a wal.Log whenever the
// superblock carries one. With the log attached, metadata writes stop
// going in place: metaWrite degrades to a delayed write, top-level
// operations run inside Begin/End frames, and the End that closes the
// outermost frame calls back into stageCommit to capture every dirty
// metadata block for one sequential log write.

// logRegion converts the superblock's log-region fragments to the
// device sector range internal/wal works in.
func (sb *Superblock) logRegion() (base, sectors int64) {
	return sb.FsbToDb(sb.LogStart), int64(sb.LogFrags) * int64(sb.Fsize) / disk.SectorSize
}

// attachLog opens the log region the superblock describes and routes
// the file system's metadata through it.
func (fs *Fs) attachLog() error {
	base, sectors := fs.SB.logRegion()
	jl, err := wal.New(fs.Sim, fs.Drv, base, sectors, int(fs.SB.Bsize), wal.Config{})
	if err != nil {
		return err
	}
	jl.Flush = fs.stageCommit
	fs.J = jl
	fs.BC.journal = jl
	fs.sbImage = make([]byte, fs.SB.Bsize)
	return nil
}

// Recover readies a restored image for Mount. An image whose superblock
// carries a log replays it whether or not repair was asked for: mounting
// over the stale home copies would lose every fsync the log holds. An
// image without a log (or without a readable primary superblock, which
// Repair finds among the alternates) is repaired only when repair is set.
func Recover(d disk.Device, repair bool) (*RepairReport, *wal.RecoverReport, error) {
	if sb, err := ReadSuperblock(d); err == nil && sb.LogFrags > 0 {
		base, sectors := sb.logRegion()
		rl, err := wal.Recover(d, base, sectors, int(sb.Bsize))
		if err != nil {
			return nil, nil, fmt.Errorf("wal recover: %w", err)
		}
		return nil, rl, nil
	}
	if !repair {
		return nil, nil, nil
	}
	rr, err := Repair(d)
	if err != nil {
		return nil, nil, fmt.Errorf("repair: %w", err)
	}
	return rr, nil, nil
}

// journaled runs op inside a transaction frame if a journal is
// attached, folding a commit error into the result if op itself
// succeeded. Once the journal has failed an I/O it runs nothing and
// returns that error: no commit could make op durable. op does not
// outlive the call, so a caller's closure stays on its stack.
func (fs *Fs) journaled(p *sim.Proc, op func() error) error {
	if fs.J == nil {
		return op()
	}
	if err := fs.J.Err(); err != nil {
		return err
	}
	fs.J.Begin(p)
	err := op()
	if cerr := fs.J.End(p); err == nil {
		err = cerr
	}
	return err
}

// stageCommit is the journal's flush callback: it captures everything
// a commit must make durable. Dirty in-core inodes are folded into
// their blocks first (their mutations — size, pointers — otherwise
// live only in the inode table), then every dirty non-busy cache
// buffer is staged in ascending block order and marked clean (its
// content is durable in the log once the commit lands; Peek serves it
// to cache misses until a checkpoint writes it home). The superblock
// rides along whenever anything else does, because its summary totals
// mutate in memory on every allocation and fsck cross-checks them
// against the bitmaps.
//
// Both sweeps visit only the dirty sets MarkDirty and markDirty keep,
// never the whole inode table or cache, in the order a sweep of the
// whole table would take.
func (fs *Fs) stageCommit(p *sim.Proc) error {
	firstErr := fs.foldDirtyInodes(p)
	bc := fs.BC
	slices.SortFunc(bc.dirtyBufs, func(a, b *MBuf) int { return cmp.Compare(a.Fsbn, b.Fsbn) })
	staged := 0
	for _, b := range bc.dirtyBufs {
		// A buffer leaves the cache clean (eviction writes it, Forget
		// discards it), so a dirty one is still the cached copy.
		if !b.dirty || b.busy {
			continue
		}
		fs.J.Stage(fs.SB.FsbToDb(b.Fsbn), b.Data)
		b.dirty = false
		staged++
	}
	bc.dirtyBufs = slices.DeleteFunc(bc.dirtyBufs, func(b *MBuf) bool {
		b.queued = b.dirty
		return !b.dirty
	})
	if staged > 0 {
		fs.SB.MarshalInto(fs.sbImage)
		fs.J.Stage(fs.SB.FsbToDb(sbFragOffset), fs.sbImage)
	}
	return firstErr
}

// foldDirtyInodes writes every dirty inode in the table into its block,
// in ascending inode order, and drops the clean ones from the dirty
// set. IUpdate may sleep on a read while other processes dirty inodes,
// so each step searches the set afresh for the next inode past the
// last one; like a sweep of the table as it stood when the commit
// began, it takes only inodes that were in core by then and are still
// in the table.
func (fs *Fs) foldDirtyInodes(p *sim.Proc) error {
	var firstErr error
	incore := fs.igets
	for last := int32(-1); ; {
		i, _ := slices.BinarySearchFunc(fs.dirtyInodes, last+1, byIno)
		for i < len(fs.dirtyInodes) && !fs.sweeps(fs.dirtyInodes[i], incore) {
			i++
		}
		if i == len(fs.dirtyInodes) {
			break
		}
		ip := fs.dirtyInodes[i]
		last = ip.Ino
		if err := fs.IUpdate(p, ip, false); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	fs.dirtyInodes = slices.DeleteFunc(fs.dirtyInodes, func(ip *Inode) bool {
		ip.queued = ip.dirty && fs.itable[ip.Ino] == ip
		return !ip.queued
	})
	return firstErr
}

// sweeps reports whether a sweep of the inode table begun when igets
// was incore writes ip back.
func (fs *Fs) sweeps(ip *Inode, incore int64) bool {
	return ip.dirty && ip.loaded <= incore && fs.itable[ip.Ino] == ip
}
