package ufs

import (
	"ufsclust/internal/detsort"
	"ufsclust/internal/sim"
)

// MetaJournal is the seam the write-ahead metadata log (internal/wal)
// plugs into. When a journal is attached, metadata writes stop going
// in place: metaWrite degrades to a delayed write, top-level
// operations run inside Begin/End frames, and the End that closes the
// outermost frame calls back into StageCommit to capture every dirty
// metadata block for one sequential log write. The interface lives
// here so ufs never imports wal.
type MetaJournal interface {
	// Begin opens (or nests into) a transaction frame.
	Begin(p *sim.Proc)
	// End closes a frame; closing the outermost frame commits all
	// staged metadata and blocks until it is durable.
	End(p *sim.Proc) error
	// Stage records one block image (by home sector) for the open
	// commit; the journal copies the data.
	Stage(sector int64, data []byte)
	// Peek returns the journal's committed-but-not-yet-checkpointed
	// image of the block at the given home sector, or nil if the home
	// copy is current. The buffer cache consults it on every miss.
	Peek(sector int64) []byte
	// Checkpoint writes every committed block home and resets the log.
	Checkpoint(p *sim.Proc) error
	// CheckpointImage is the offline checkpoint (no simulated time),
	// used by SyncImage before fsck-style image inspection.
	CheckpointImage()
}

// AttachJournal installs the journal on a mounted file system. The
// caller (the machine builder) must also install StageCommit as the
// journal's flush callback, so commits capture the dirty metadata.
func (fs *Fs) AttachJournal(j MetaJournal) {
	fs.J = j
	fs.BC.journal = j
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

// StageCommit is the journal's flush callback: it captures everything
// a commit must make durable. Dirty in-core inodes are folded into
// their blocks first (their mutations — size, pointers — otherwise
// live only in the inode table), then every dirty non-busy cache
// buffer is staged in ascending block order and marked clean (its
// content is durable in the log once the commit lands; Peek serves it
// to cache misses until a checkpoint writes it home). The superblock
// rides along whenever anything else does, because its summary totals
// mutate in memory on every allocation and fsck cross-checks them
// against the bitmaps.
func (fs *Fs) StageCommit(p *sim.Proc) error {
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
