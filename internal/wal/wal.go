// Package wal is the write-ahead metadata journal: a fixed on-disk log
// region (reserved past the last cylinder group by ufs.Mkfs), filled
// with checksummed, transaction-framed copies of the metadata blocks
// each operation dirtied. The file system stops writing metadata in
// place; instead every operation's dirty blocks are staged and made
// durable by one sequential log write (group commit), and the blocks
// only go home — again sequentially batched — when a checkpoint resets
// the log. Crash recovery is then Recover: replay the committed prefix
// of the log over the image, discard the torn tail by checksum, and
// done — O(log size) sectors instead of the O(disk) sweep ufs.Repair
// performs.
//
// The package is file-system-agnostic: records are (sector, block)
// pairs. internal/ufs drives it through the ufs.MetaJournal interface
// and installs the Flush callback that stages dirty metadata at commit
// time, so wal never imports ufs.
//
// On-disk format (all sectors 512 bytes, little-endian):
//
//	sector 0     log superblock: magic, epoch, checksum. One sector,
//	             so the power-cut model applies it atomically.
//	sector 1...  transactions, back to back. Each is:
//	               descriptor sector(s): magic, epoch, index, nblocks,
//	                 first, then up to 60 home-sector addresses
//	               data: nblocks × (block size) raw block images
//	               commit sector: magic, epoch, index, nblocks, and a
//	                 checksum over the descriptor and data bytes
//
// A transaction replays only if its descriptor chain parses, its epoch
// and running index match, and the commit checksum verifies — so any
// torn combination of its sectors discards the whole transaction, and
// scanning stops there (later transactions may depend on earlier ones).
// Checkpoint bumps the epoch in the log superblock, which atomically
// invalidates every record still sitting in the region.
package wal

import (
	"encoding/binary"
	"fmt"

	"ufsclust/internal/detsort"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// Record magics. Distinct values per record role so a data block that
// happens to land where a descriptor is expected cannot parse as one.
const (
	logMagic    uint64 = 0x5546_5357_414c_7631 // "UFSWALv1"
	descMagic   uint64 = 0x5741_4c44_4553_4331 // "WALDESC1"
	commitMagic uint64 = 0x5741_4c43_4d54_5231 // "WALCMTR1"
)

const (
	// descHdrBytes is the descriptor sector header: magic, epoch,
	// index, nblocks, first.
	descHdrBytes = 8 + 8 + 8 + 4 + 4
	// addrsPerDesc is how many 8-byte home-sector addresses follow the
	// header in one descriptor sector.
	addrsPerDesc = (disk.SectorSize - descHdrBytes) / 8
)

// DefaultLogBlocks sizes the log region when Config.LogBlocks is zero:
// 64 file-system blocks = 512 KB, roomy against the handful of blocks
// a metadata transaction carries.
const DefaultLogBlocks = 64

// Config tunes the journal.
type Config struct {
	// LogBlocks is the on-disk log region size in file-system blocks,
	// reserved by Mkfs. Zero picks DefaultLogBlocks.
	LogBlocks int
	// Clustered issues each commit as maxphys-sized contiguous
	// transfers (the paper's write-clustering applied to the log
	// itself) instead of one transfer per record. Both layouts are
	// byte-identical on disk; only the request stream differs.
	Clustered bool
}

// Blocks returns the configured log size with the default applied.
func (c Config) Blocks() int {
	if c.LogBlocks <= 0 {
		return DefaultLogBlocks
	}
	return c.LogBlocks
}

// checksum is FNV-1a 64 over the given bytes — content protection for
// torn-write detection, not cryptographic.
func checksum(parts ...[]byte) uint64 {
	sum := uint64(14695981039346656037)
	for _, p := range parts {
		for _, b := range p {
			sum ^= uint64(b)
			sum *= 1099511628211
		}
	}
	return sum
}

// stagedBlock is one metadata block captured for the open transaction.
type stagedBlock struct {
	sector int64  // home address
	data   []byte // private copy, block-sized
}

// Log is the journal runtime attached to a mounted file system.
type Log struct {
	Sim *sim.Sim
	Drv *driver.Driver

	base       int64 // first sector of the log region
	sectors    int64 // region length in sectors
	blockBytes int   // file-system block size
	clustered  bool

	// Flush is installed by the file system: called at commit time in
	// process context, it stages (via Stage) every dirty metadata
	// block the commit must make durable.
	Flush func(p *sim.Proc) error

	epoch uint64
	head  int64  // next free sector offset within the region
	index uint64 // next transaction index within the epoch

	// Transaction framing. frames tracks each process's open-frame
	// depth (nested operations — Remove calling Truncate — ride their
	// own outer frame and must not wait on it); open counts processes
	// with at least one frame open. The End that drops open to zero
	// commits everything staged; a top-level End that leaves other
	// frames open blocks until the commit that covers it — group
	// commit across processes.
	frames       map[*sim.Proc]int
	open         int
	busy         bool // a commit or checkpoint is in progress
	openSeq      uint64
	committedSeq uint64
	commitErr    error
	commitQ      sim.WaitQ
	busyQ        sim.WaitQ

	staged   []stagedBlock
	stagedAt map[int64]int // home sector → index into staged
	// ckpt holds the committed image of every block whose home copy is
	// stale: written at checkpoint, consulted by Peek so cache misses
	// never read a stale home copy.
	ckpt map[int64][]byte

	err error // sticky first journal I/O error

	bus *telemetry.Bus

	// Stats
	Commits, CommitBlocks, CommitSectors int64
	EmptyCommits, OverflowCommits        int64
	Checkpoints, CheckpointBlocks        int64
	PeekFills                            int64
}

// New attaches a log runtime to the formatted (or just recovered) log
// region at base. It validates the log superblock and starts a fresh
// transaction stream at its epoch; both Format and Recover leave the
// region empty, so head starts at sector 1.
func New(s *sim.Sim, drv *driver.Driver, base, sectors int64, blockBytes int, cfg Config) (*Log, error) {
	if sectors < 4+int64(blockBytes/disk.SectorSize) {
		return nil, fmt.Errorf("wal: log region too small (%d sectors)", sectors)
	}
	buf := make([]byte, disk.SectorSize)
	drv.Disk.ReadImage(base, buf)
	if binary.LittleEndian.Uint64(buf[0:]) != logMagic {
		return nil, fmt.Errorf("wal: bad log superblock magic %#x", binary.LittleEndian.Uint64(buf[0:]))
	}
	if binary.LittleEndian.Uint64(buf[16:]) != checksum(buf[:16]) {
		return nil, fmt.Errorf("wal: log superblock checksum mismatch")
	}
	return &Log{
		Sim:        s,
		Drv:        drv,
		base:       base,
		sectors:    sectors,
		blockBytes: blockBytes,
		clustered:  cfg.Clustered,
		epoch:      binary.LittleEndian.Uint64(buf[8:]),
		head:       1,
		frames:     make(map[*sim.Proc]int),
		stagedAt:   make(map[int64]int),
		ckpt:       make(map[int64][]byte),
	}, nil
}

// Err returns the journal's sticky first I/O error, if any.
func (l *Log) Err() error { return l.err }

func (l *Log) recordErr(err error) {
	if l.err == nil && err != nil {
		l.err = err
	}
}

// Begin opens (or nests into) a transaction frame for p. A process
// opening its first frame waits out any commit or checkpoint in
// progress, so a new operation cannot mutate metadata that is being
// staged; nested Begins never wait (a commit cannot be running while
// this process already holds a frame).
func (l *Log) Begin(p *sim.Proc) {
	if l.frames[p] == 0 {
		for l.busy {
			p.Block(&l.busyQ)
		}
		if l.open == 0 {
			l.openSeq++
		}
		l.open++
	}
	l.frames[p]++
}

// End closes p's innermost frame. A nested End returns immediately —
// durability comes from the outer frame's commit. Closing the last
// open frame of all stages all dirty metadata (the Flush callback)
// and commits it with one log write; closing p's top-level frame
// while other processes still hold frames blocks until the commit
// that covers this operation lands — group commit. Either way a
// top-level End returns with its operation durable.
func (l *Log) End(p *sim.Proc) error {
	l.frames[p]--
	if l.frames[p] > 0 {
		return nil
	}
	delete(l.frames, p)
	l.open--
	seq := l.openSeq
	if l.open > 0 {
		for l.committedSeq < seq {
			p.Block(&l.commitQ)
		}
		return l.commitErr
	}
	l.busy = true
	err := l.commit(p)
	l.commitErr = err
	l.committedSeq = seq
	l.busy = false
	l.commitQ.WakeAll()
	l.busyQ.WakeAll()
	return err
}

// Stage records one block image for the open commit. The data is
// copied; staging the same home sector again within a transaction
// overwrites the earlier copy.
func (l *Log) Stage(sector int64, data []byte) {
	if i, ok := l.stagedAt[sector]; ok {
		copy(l.staged[i].data, data)
		return
	}
	l.stagedAt[sector] = len(l.staged)
	l.staged = append(l.staged, stagedBlock{sector: sector, data: append([]byte(nil), data...)})
}

// Peek returns the journal's committed (or currently staged) image of
// the block at the given home sector, or nil if the home copy on disk
// is current. The buffer cache consults it on every miss: a block that
// was committed but not yet checkpointed has a stale home copy.
func (l *Log) Peek(sector int64) []byte {
	if i, ok := l.stagedAt[sector]; ok {
		l.PeekFills++
		return l.staged[i].data
	}
	if data, ok := l.ckpt[sector]; ok {
		l.PeekFills++
		return data
	}
	return nil
}

// txnSectors returns the on-log footprint of an n-block transaction.
func (l *Log) txnSectors(n int) int64 {
	nd := (n + addrsPerDesc - 1) / addrsPerDesc
	return int64(nd) + int64(n)*int64(l.blockBytes/disk.SectorSize) + 1
}

// commit stages dirty metadata via Flush and writes the transaction.
// Caller holds busy.
func (l *Log) commit(p *sim.Proc) error {
	var flushErr error
	if l.Flush != nil {
		flushErr = l.Flush(p)
		l.recordErr(flushErr)
	}
	if len(l.staged) == 0 {
		l.EmptyCommits++
		return flushErr
	}
	need := l.txnSectors(len(l.staged))
	if l.head+need > l.sectors {
		// Log full: write the committed blocks home and reset.
		if err := l.checkpoint(p); err != nil {
			return err
		}
	}
	if l.head+need > l.sectors {
		// The transaction alone outgrows the log. Degrade to writing
		// its blocks home directly (a checkpoint of the transaction):
		// consistent if no crash intervenes, torn-window exposed if
		// one does — the log was provisioned too small.
		l.OverflowCommits++
		l.moveStagedToCkpt()
		err := l.checkpoint(p)
		if flushErr == nil {
			flushErr = err
		}
		return flushErr
	}
	img := l.buildTxn()
	err := l.writeLog(p, l.base+l.head, img)
	if l.bus.Active() {
		l.bus.Emit(telemetry.Event{
			T: l.Sim.Now(), Kind: telemetry.EvLogCommit, Write: true,
			Sector: l.base + l.head, Bytes: int64(len(img)), Blocks: int64(len(l.staged)),
		})
	}
	l.Commits++
	l.CommitBlocks += int64(len(l.staged))
	l.CommitSectors += int64(len(img) / disk.SectorSize)
	l.head += int64(len(img) / disk.SectorSize)
	l.index++
	l.moveStagedToCkpt()
	if flushErr == nil {
		flushErr = err
	}
	return flushErr
}

// moveStagedToCkpt promotes the staged copies to committed ones.
func (l *Log) moveStagedToCkpt() {
	for _, sb := range l.staged {
		l.ckpt[sb.sector] = sb.data
	}
	l.staged = l.staged[:0]
	clear(l.stagedAt)
}

// buildTxn renders the staged blocks as one contiguous transaction
// image: descriptor sector(s), data, commit sector.
func (l *Log) buildTxn() []byte {
	n := len(l.staged)
	nd := (n + addrsPerDesc - 1) / addrsPerDesc
	img := make([]byte, (nd+1)*disk.SectorSize+n*l.blockBytes)
	for d := 0; d < nd; d++ {
		s := img[d*disk.SectorSize:]
		binary.LittleEndian.PutUint64(s[0:], descMagic)
		binary.LittleEndian.PutUint64(s[8:], l.epoch)
		binary.LittleEndian.PutUint64(s[16:], l.index)
		binary.LittleEndian.PutUint32(s[24:], uint32(n))
		binary.LittleEndian.PutUint32(s[28:], uint32(d*addrsPerDesc))
		for i := d * addrsPerDesc; i < n && i < (d+1)*addrsPerDesc; i++ {
			binary.LittleEndian.PutUint64(s[descHdrBytes+(i-d*addrsPerDesc)*8:], uint64(l.staged[i].sector))
		}
	}
	data := img[nd*disk.SectorSize:]
	for i, sb := range l.staged {
		copy(data[i*l.blockBytes:], sb.data)
	}
	c := img[len(img)-disk.SectorSize:]
	binary.LittleEndian.PutUint64(c[0:], commitMagic)
	binary.LittleEndian.PutUint64(c[8:], l.epoch)
	binary.LittleEndian.PutUint64(c[16:], l.index)
	binary.LittleEndian.PutUint32(c[24:], uint32(n))
	binary.LittleEndian.PutUint64(c[32:], checksum(img[:len(img)-disk.SectorSize]))
	return img
}

// writeLog issues the transaction image at the given absolute sector.
// Clustered: maxphys-sized contiguous transfers. Unclustered: one
// transfer per record (each descriptor sector, each block, the commit
// sector), modeling a journal that never learned to cluster. Either
// way all transfers are issued together and waited for once — the
// commit checksum, not write ordering, provides atomicity.
func (l *Log) writeLog(p *sim.Proc, sector int64, img []byte) error {
	var spans [][2]int // byte ranges of img
	if l.clustered {
		maxphys := l.Drv.MaxPhys()
		for off := 0; off < len(img); off += maxphys {
			end := off + maxphys
			if end > len(img) {
				end = len(img)
			}
			spans = append(spans, [2]int{off, end})
		}
	} else {
		n := len(l.staged)
		nd := (n + addrsPerDesc - 1) / addrsPerDesc
		off := 0
		for d := 0; d < nd; d++ {
			spans = append(spans, [2]int{off, off + disk.SectorSize})
			off += disk.SectorSize
		}
		for i := 0; i < n; i++ {
			spans = append(spans, [2]int{off, off + l.blockBytes})
			off += l.blockBytes
		}
		spans = append(spans, [2]int{off, off + disk.SectorSize})
	}
	bufs := make([]*driver.Buf, len(spans))
	for i, sp := range spans {
		bufs[i] = &driver.Buf{Blkno: sector + int64(sp[0]/disk.SectorSize), Data: img[sp[0]:sp[1]], Write: true}
	}
	err := l.writeAll(p, bufs)
	l.recordErr(err)
	return err
}

// writeAll queues every buffer, then waits for them all — the transfers
// overlap in the driver queue — and returns the first error in
// completion order.
func (l *Log) writeAll(p *sim.Proc, bufs []*driver.Buf) error {
	outstanding := len(bufs)
	var firstErr error
	var q sim.WaitQ
	for _, b := range bufs {
		b.Iodone = func(db *driver.Buf) {
			if firstErr == nil {
				firstErr = db.Err
			}
			outstanding--
			if outstanding == 0 {
				q.WakeAll()
			}
		}
		l.Drv.Strategy(p, b)
	}
	for outstanding > 0 {
		p.Block(&q)
	}
	return firstErr
}

// Checkpoint writes every committed block home and resets the log. The
// file system calls it on sync/unmount; commit calls the internal form
// when the log fills.
func (l *Log) Checkpoint(p *sim.Proc) error {
	for l.busy {
		p.Block(&l.busyQ)
	}
	l.busy = true
	err := l.checkpoint(p)
	l.busy = false
	l.busyQ.WakeAll()
	return err
}

// checkpoint does the work: in-place writes of the committed copies
// (never live cache buffers — a concurrent mutation must not leak into
// the checkpoint), then a log superblock with the next epoch, which
// atomically retires every transaction still in the region. Caller
// holds busy. A crash anywhere inside is safe: the old-epoch log
// replays idempotently over a partial checkpoint.
func (l *Log) checkpoint(p *sim.Proc) error {
	if len(l.ckpt) == 0 && l.head == 1 {
		return nil
	}
	var home []*driver.Buf
	for _, sector := range detsort.Keys(l.ckpt) {
		home = append(home, &driver.Buf{Blkno: sector, Data: l.ckpt[sector], Write: true})
	}
	if err := l.writeAll(p, home); err != nil {
		// The home copies are not all durable; keep the log as is so
		// recovery can still replay them.
		l.recordErr(err)
		return err
	}
	sb := &driver.Buf{Blkno: l.base, Data: logSuperblock(l.epoch + 1), Write: true}
	l.Drv.IO(p, sb)
	l.recordErr(sb.Err)
	if sb.Err != nil {
		return sb.Err
	}
	l.epoch++
	l.head = 1
	l.index = 0
	n := int64(len(l.ckpt))
	clear(l.ckpt)
	l.Checkpoints++
	l.CheckpointBlocks += n
	if l.bus.Active() {
		l.bus.Emit(telemetry.Event{
			T: l.Sim.Now(), Kind: telemetry.EvLogCheckpoint, Write: true,
			Blocks: n, Depth: int64(l.epoch),
		})
	}
	return nil
}

// CheckpointImage is the offline checkpoint: spill every committed and
// staged copy straight to the image with no simulated time, then reset
// the log. The file system's SyncImage calls it before spilling its
// own caches, so offline fsck of a live journaled machine sees a
// current image.
func (l *Log) CheckpointImage() {
	for _, sector := range detsort.Keys(l.ckpt) {
		l.Drv.Disk.WriteImage(sector, l.ckpt[sector])
		delete(l.ckpt, sector)
	}
	for _, sb := range l.staged {
		l.Drv.Disk.WriteImage(sb.sector, sb.data)
	}
	l.staged = l.staged[:0]
	clear(l.stagedAt)
	l.epoch++
	l.head = 1
	l.index = 0
	l.Drv.Disk.WriteImage(l.base, logSuperblock(l.epoch))
}

// logSuperblock renders a log superblock sector for the given epoch.
func logSuperblock(epoch uint64) []byte {
	buf := make([]byte, disk.SectorSize)
	binary.LittleEndian.PutUint64(buf[0:], logMagic)
	binary.LittleEndian.PutUint64(buf[8:], epoch)
	binary.LittleEndian.PutUint64(buf[16:], checksum(buf[:16]))
	return buf
}

// Format initializes the log region: an empty epoch-1 log. Runs
// offline (mkfs time).
func Format(d disk.Device, base int64) {
	d.WriteImage(base, logSuperblock(1))
}

// AttachTelemetry registers the journal's counters and hooks the event
// bus. Only journaled machines carry a Log, so default machines'
// metric manifests are untouched.
func (l *Log) AttachTelemetry(tel *telemetry.Telemetry) {
	r := tel.Reg
	r.Counter("wal.commits", func() int64 { return l.Commits })
	r.Counter("wal.commit_blocks", func() int64 { return l.CommitBlocks })
	r.Counter("wal.commit_sectors", func() int64 { return l.CommitSectors })
	r.Counter("wal.empty_commits", func() int64 { return l.EmptyCommits })
	r.Counter("wal.overflow_commits", func() int64 { return l.OverflowCommits })
	r.Counter("wal.checkpoints", func() int64 { return l.Checkpoints })
	r.Counter("wal.checkpoint_blocks", func() int64 { return l.CheckpointBlocks })
	r.Counter("wal.peek_fills", func() int64 { return l.PeekFills })
	r.Gauge("wal.epoch", func() int64 { return int64(l.epoch) })
	r.Gauge("wal.head_sectors", func() int64 { return l.head })
	r.Gauge("wal.pending_blocks", func() int64 { return int64(len(l.ckpt)) })
	l.bus = tel.Bus
}
