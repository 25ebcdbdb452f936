package ufs

import (
	"ufsclust/internal/cpu"
	"ufsclust/internal/detsort"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
)

// MBuf is a metadata buffer: one file system block of superblock copies,
// cylinder group headers, inode blocks, indirect blocks, or directory
// data. SunOS kept the old buffer cache for exactly this metadata while
// file data moved to the page cache; so do we.
type MBuf struct {
	Fsbn  int32 // block-aligned fragment address
	Data  []byte
	dirty bool
	busy  bool
	valid bool

	// orderedPending marks a B_ORDER write queued but possibly not yet
	// taken by the drive. Further ordered writes of the same buffer
	// coalesce onto the queued request — the mechanism that makes
	// "rm *" fast: sixty inode updates become one ordered disk write.
	orderedPending bool

	wanted sim.WaitQ
	lru    int64 // last-release sequence for eviction
}

// Bcache is the metadata buffer cache.
type Bcache struct {
	Sim *sim.Sim
	CPU *cpu.Model // may be nil
	Drv *driver.Driver
	sb  *Superblock

	bufs map[int32]*MBuf
	nbuf int
	seq  int64

	// journal, when attached, pins dirty buffers in memory (the next
	// commit stages them; writing them in place would publish
	// uncommitted state) and backfills cache misses whose home copy on
	// disk is stale (committed but not yet checkpointed).
	journal MetaJournal

	// err is the sticky first I/O error: every failed metadata
	// transfer records here, including ones with no caller to return
	// to (evictions, ordered-write completions, delayed writes).
	err error

	// Stats
	Hits, Misses, Evictions, Writes int64
}

// Err returns the first metadata I/O error seen by the cache, if any.
func (bc *Bcache) Err() error { return bc.err }

// recordErr keeps the first error.
func (bc *Bcache) recordErr(err error) {
	if bc.err == nil && err != nil {
		bc.err = err
	}
}

// NewBcache builds a cache of nbuf block buffers (default 64 = 512 KB).
func NewBcache(s *sim.Sim, cpuModel *cpu.Model, drv *driver.Driver, sb *Superblock, nbuf int) *Bcache {
	if nbuf <= 0 {
		nbuf = 64
	}
	return &Bcache{Sim: s, CPU: cpuModel, Drv: drv, sb: sb, bufs: make(map[int32]*MBuf), nbuf: nbuf}
}

// align rounds a fragment address down to its block start.
func (bc *Bcache) align(fsbn int32) int32 { return fsbn / bc.sb.Frag * bc.sb.Frag }

// getblk finds or creates the buffer for the block containing fsbn,
// returning it busy (locked). The contents are valid only if the buffer
// was already cached; Bread fills invalid buffers.
func (bc *Bcache) getblk(p *sim.Proc, fsbn int32) *MBuf {
	key := bc.align(fsbn)
	for {
		b, ok := bc.bufs[key]
		if !ok {
			break
		}
		if !b.busy {
			b.busy = true
			return b
		}
		b.waitUnlock(p)
		// Re-check: the buffer may have been evicted while we slept.
	}
	// Miss: evict if full.
	for len(bc.bufs) >= bc.nbuf {
		victim := bc.evictable()
		if victim == nil {
			if bc.journal != nil {
				// Every buffer is busy or dirty. Dirty buffers stay
				// pinned until the next commit stages them, so grow
				// past nbuf instead of writing uncommitted metadata
				// in place; the commit drains the overshoot.
				break
			}
			// Everything busy; wait for any release. Crude but rare.
			p.Sleep(sim.Millisecond)
			continue
		}
		victim.busy = true
		if victim.dirty {
			bc.iowrite(p, victim)
			victim.dirty = false
		}
		delete(bc.bufs, victim.Fsbn)
		bc.Evictions++
		victim.busy = false
		victim.wanted.WakeAll()
	}
	b := &MBuf{Fsbn: key, Data: make([]byte, bc.sb.Bsize), busy: true}
	bc.bufs[key] = b
	return b
}

// evictable picks the least-recently released non-busy buffer. The
// walk visits buffers in block order so that an lru tie (possible when
// buffers are installed without ever being released) picks the same
// victim on every run.
func (bc *Bcache) evictable() *MBuf {
	var victim *MBuf
	for _, fsbn := range detsort.Keys(bc.bufs) {
		b := bc.bufs[fsbn]
		if b.busy || (bc.journal != nil && b.dirty) {
			continue
		}
		if victim == nil || b.lru < victim.lru {
			victim = b
		}
	}
	return victim
}

func (b *MBuf) waitUnlock(p *sim.Proc) {
	for b.busy {
		p.Block(&b.wanted)
	}
}

// Bread returns the buffer for the block containing fsbn, reading it
// from disk if necessary. The buffer is returned locked; release with
// Brelse, Bdwrite, or Bwrite. On a media error the buffer is released
// invalid (a later Bread retries the read) and the error is returned
// and recorded in the cache's sticky error.
func (bc *Bcache) Bread(p *sim.Proc, fsbn int32) (*MBuf, error) {
	b := bc.getblk(p, fsbn)
	if b.valid {
		bc.Hits++
		return b, nil
	}
	bc.Misses++
	if bc.journal != nil {
		if data := bc.journal.Peek(bc.sb.FsbToDb(b.Fsbn)); data != nil {
			// The home copy on disk is stale: the block was committed
			// to the log but not yet checkpointed. Fill from the
			// journal's committed image instead of reading the disk.
			copy(b.Data, data)
			b.valid = true
			return b, nil
		}
	}
	db := &driver.Buf{Blkno: bc.sb.FsbToDb(b.Fsbn), Data: b.Data}
	// simlint:ignore blockpath -- waiting for this buffer's own read: b must stay locked until its data lands
	bc.Drv.IO(p, db)
	if db.Err != nil {
		bc.recordErr(db.Err)
		bc.Brelse(b)
		return nil, db.Err
	}
	b.valid = true
	return b, nil
}

// Brelse unlocks a buffer without changing its dirty state.
func (bc *Bcache) Brelse(b *MBuf) {
	bc.seq++
	b.lru = bc.seq
	b.busy = false
	b.wanted.WakeAll()
}

// Bdwrite marks the buffer dirty and releases it (a delayed write: the
// data goes out on eviction or Flush).
func (bc *Bcache) Bdwrite(b *MBuf) {
	b.dirty = true
	bc.Brelse(b)
}

// Bwrite writes the buffer synchronously and releases it. UFS uses
// synchronous metadata writes where ordering matters (the cost the
// paper's B_ORDER proposal would remove).
func (bc *Bcache) Bwrite(p *sim.Proc, b *MBuf) error {
	b.dirty = false
	err := bc.iowrite(p, b)
	bc.Brelse(b)
	return err
}

// BwriteOrdered starts an asynchronous write carrying the B_ORDER flag
// — the driver (and anything below it) may not reorder the request —
// and releases the buffer immediately. It gives the on-disk ordering
// that UFS otherwise buys with synchronous writes, without making the
// caller wait: the paper's Further Work proposal. Ordered writes of a
// buffer whose previous ordered write is still queued coalesce onto it
// (the queued request carries the buffer's live contents), so bursts of
// metadata updates to one block cost one transfer.
func (bc *Bcache) BwriteOrdered(p *sim.Proc, b *MBuf) {
	b.dirty = false
	if b.orderedPending {
		bc.Brelse(b)
		return
	}
	b.orderedPending = true
	bc.Drv.Strategy(p, &driver.Buf{
		Blkno: bc.sb.FsbToDb(b.Fsbn),
		Data:  b.Data,
		Write: true,
		Order: true,
		Iodone: func(db *driver.Buf) {
			// Asynchronous: there is no caller left to take the error,
			// so a failed ordered write lands in the sticky error.
			bc.recordErr(db.Err)
			bc.Writes++
			b.orderedPending = false
		},
	})
	bc.Brelse(b)
}

// metaWrite applies the mount's ordering discipline to a modified
// metadata buffer: a blocking synchronous write classically, an ordered
// asynchronous one with OrderedWrites.
//
// Caveat (known simplification): coalescing a later update onto a
// still-queued ordered write can, across a crash, publish that update
// ahead of intervening writes to other blocks — full correctness needs
// the dependency tracking soft updates later developed. The paper only
// sketches B_ORDER; we implement the sketch.
func (fs *Fs) metaWrite(p *sim.Proc, b *MBuf) error {
	if fs.J != nil {
		// Journaled: ordering and durability come from the commit that
		// closes the enclosing transaction frame, so the write is just
		// a delayed one — the commit stages it into the log.
		fs.JournalMetaWrites++
		fs.BC.Bdwrite(b)
		return nil
	}
	if fs.OrderedWrites {
		fs.OrderedMetaWrites++
		fs.BC.BwriteOrdered(p, b)
		return nil
	}
	fs.SyncMetaWrites++
	return fs.BC.Bwrite(p, b)
}

// iowrite performs the timed write of b. A give-up from the driver is
// returned and recorded in the sticky error.
func (bc *Bcache) iowrite(p *sim.Proc, b *MBuf) error {
	db := &driver.Buf{Blkno: bc.sb.FsbToDb(b.Fsbn), Data: b.Data, Write: true}
	bc.Drv.IO(p, db)
	bc.Writes++
	bc.recordErr(db.Err)
	return db.Err
}

// Flush writes every dirty buffer (sync/unmount path) in ascending
// block order, so the sequence of simulated writes — and therefore
// virtual time — replays identically run to run. It keeps going past
// a failed write (best effort, like update(8)) and returns the first
// error.
func (bc *Bcache) Flush(p *sim.Proc) error {
	var firstErr error
	for _, fsbn := range detsort.Keys(bc.bufs) {
		b := bc.bufs[fsbn]
		if b.dirty && !b.busy {
			b.busy = true
			b.dirty = false
			if err := bc.iowrite(p, b); err != nil && firstErr == nil {
				firstErr = err
			}
			b.busy = false
			b.wanted.WakeAll()
		}
	}
	return firstErr
}

// FlushBlock synchronously writes the cached block containing fsbn if
// it is dirty. It is the fsync path for indirect blocks: data and
// pointer blocks must be durable before the inode that references
// them is written.
func (bc *Bcache) FlushBlock(p *sim.Proc, fsbn int32) error {
	b, ok := bc.bufs[bc.align(fsbn)]
	if !ok || !b.dirty {
		return nil
	}
	b.waitUnlock(p)
	if !b.dirty {
		return nil
	}
	b.busy = true
	b.dirty = false
	err := bc.iowrite(p, b)
	bc.Brelse(b)
	return err
}
