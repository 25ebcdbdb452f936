package ufs

import (
	"fmt"

	"ufsclust/internal/detsort"
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
// succeeded. op does not outlive the call, so a caller's closure stays
// on its stack.
func (fs *Fs) journaled(p *sim.Proc, op func() error) error {
	if fs.J == nil {
		return op()
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
func (fs *Fs) stageCommit(p *sim.Proc) error {
	var firstErr error
	for _, ino := range detsort.Keys(fs.itable) {
		if ip := fs.itable[ino]; ip.dirty {
			if err := fs.IUpdate(p, ip, false); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	staged := 0
	for _, fsbn := range detsort.Keys(fs.BC.bufs) {
		b, ok := fs.BC.bufs[fsbn]
		if !ok || !b.dirty || b.busy {
			continue
		}
		fs.J.Stage(fs.SB.FsbToDb(b.Fsbn), b.Data)
		b.dirty = false
		staged++
	}
	if staged > 0 {
		fs.J.Stage(fs.SB.FsbToDb(sbFragOffset), sbBlockImage(fs.SB))
	}
	return firstErr
}
