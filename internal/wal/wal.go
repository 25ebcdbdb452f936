// Package wal is the write-ahead metadata journal: a fixed on-disk log
// region (reserved in cylinder group 0, beside the metadata and the
// first files it logs, by ufs.Mkfs), filled
// with checksummed, transaction-framed records of the metadata each
// operation changed. The file system stops writing metadata in place;
// instead every operation's dirty blocks are staged, and one clustered
// log write (group commit) makes the sectors of them that changed
// durable. The blocks only go home — again batched — when a checkpoint
// resets the log. Crash recovery is then Recover: replay the committed
// prefix of the log over the image, discard the torn tail by checksum,
// and done — O(log size) sectors instead of the O(disk) sweep
// ufs.Repair performs.
//
// The package is file-system-agnostic: records are runs of sectors at
// home addresses. internal/ufs owns the region — its Mkfs formats it,
// its Recover replays it, its Mount opens a Log on it and installs the
// Flush callback that stages dirty metadata at commit time — so wal
// never imports ufs.
//
// What a commit logs: each staged block is compared, sector by sector,
// with its last committed image; every run of sectors that differ is
// one record. A block with no committed image in the current epoch is
// logged whole, and an unchanged block logs nothing. Replay is sound
// because a block's first record in every epoch is whole: the home copy
// plus the epoch's records applied in log order rebuild each committed
// image exactly. A freed block is dropped (Drop); a commit that drops a
// block the epoch has logged ends in a checkpoint, so no replay can
// write the stale image over the block's next owner.
//
// On-disk format v2 (all sectors 512 bytes, little-endian):
//
//	sector 0     log superblock: magic, epoch, checksum. One sector,
//	             so the power-cut model applies it atomically.
//	sector 1...  transactions, back to back. Each is:
//	               descriptor sector(s): magic, epoch, index, nrecords,
//	                 first, then up to 60 entries of 8 bytes: the
//	                 record's home sector in the low 48 bits and its
//	                 sector count in the top 16
//	               data: the records' sectors, in entry order
//	               commit sector: magic, epoch, index, nrecords, and a
//	                 checksum over the descriptor and data bytes
//
// Each transaction goes to the disk as one transfer per MaxPhys. It
// replays only if its descriptor chain parses, its epoch and running
// index match, and the commit checksum verifies — so any torn
// combination of its sectors discards the whole transaction, and
// scanning stops there (later transactions may depend on earlier ones).
// Checkpoint bumps the epoch in the log superblock, which atomically
// invalidates every record still sitting in the region.
package wal

import (
	"bytes"
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
	logMagic    uint64 = 0x5546_5357_414c_7632 // "UFSWALv2"
	descMagic   uint64 = 0x5741_4c44_4553_4331 // "WALDESC1"
	commitMagic uint64 = 0x5741_4c43_4d54_5231 // "WALCMTR1"
)

const (
	// descHdrBytes is the descriptor sector header: magic, epoch,
	// index, nrecords, first.
	descHdrBytes = 8 + 8 + 8 + 4 + 4
	// entriesPerDesc is how many 8-byte record entries follow the
	// header in one descriptor sector.
	entriesPerDesc = (disk.SectorSize - descHdrBytes) / 8
	// countShift places a record's sector count above its 48-bit home
	// sector in a descriptor entry.
	countShift = 48
)

// entry packs a record's home sector and sector count into its
// descriptor slot.
func entry(sector int64, count int) uint64 {
	return uint64(sector) | uint64(count)<<countShift
}

// unpackEntry is entry's inverse.
func unpackEntry(e uint64) (sector, count int64) {
	return int64(e & (1<<countShift - 1)), int64(e >> countShift)
}

// LogBlocks is the on-disk log region size in file-system blocks,
// reserved by Mkfs: 64 blocks = 512 KB.
const LogBlocks = 64

// Config is the journal's configuration. It has no settings: the log
// region size is LogBlocks, and every commit is one clustered write of
// the sectors that changed.
type Config struct{}

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

// record is one run of a staged block's sectors that the open commit
// logs: sectors [off, off+count) of staged[blk].
type record struct{ blk, off, count int }

// Log is the journal runtime attached to a mounted file system.
type Log struct {
	Sim *sim.Sim
	Drv *driver.Driver

	base       int64 // first sector of the log region
	sectors    int64 // region length in sectors
	blockBytes int   // file-system block size

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
	// dropLogged is set when Drop forgets a block this epoch logged:
	// the commit then ends in a checkpoint.
	dropLogged bool

	// Scratch every commit reuses: the records, the transaction image
	// and its transfers, and block copies retired from ckpt for Stage.
	recs  []record
	txn   []byte
	bufs  []*driver.Buf
	spare [][]byte

	err error // sticky first journal I/O error

	bus *telemetry.Bus

	// Stats
	Commits, CommitBlocks, CommitSectors int64 // CommitBlocks counts blocks with a record
	EmptyCommits, OverflowCommits        int64
	Checkpoints, CheckpointBlocks        int64
	PeekFills                            int64
}

// New attaches a log runtime to the formatted (or just recovered) log
// region at base. It validates the log superblock and starts a fresh
// transaction stream at its epoch, so the region must hold no committed
// transaction of that epoch: both Format and Recover leave it empty,
// and head starts at sector 1.
func New(s *sim.Sim, drv *driver.Driver, base, sectors int64, blockBytes int, _ Config) (*Log, error) {
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
	var c []byte
	if n := len(l.spare); n > 0 {
		c, l.spare = l.spare[n-1], l.spare[:n-1]
	} else {
		c = make([]byte, l.blockBytes)
	}
	copy(c, data)
	l.stagedAt[sector] = len(l.staged)
	l.staged = append(l.staged, stagedBlock{sector: sector, data: c})
}

// Drop forgets the block at the given home sector: it is neither staged
// nor written home at checkpoint any more, and Peek no longer serves
// it. If the current epoch logged the block, the next commit ends in a
// checkpoint, so that replay cannot write it either.
func (l *Log) Drop(sector int64) {
	if i, ok := l.stagedAt[sector]; ok {
		l.spare = append(l.spare, l.staged[i].data)
		l.staged = append(l.staged[:i], l.staged[i+1:]...)
		delete(l.stagedAt, sector)
		for j := i; j < len(l.staged); j++ {
			l.stagedAt[l.staged[j].sector] = j
		}
	}
	if data, ok := l.ckpt[sector]; ok {
		l.spare = append(l.spare, data)
		delete(l.ckpt, sector)
		l.dropLogged = true
	}
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

// plan splits the staged blocks into the open commit's records and
// returns the transaction's footprint in log sectors, 0 if nothing
// differs from the committed images.
func (l *Log) plan() int64 {
	l.recs = l.recs[:0]
	blockSec := l.blockBytes / disk.SectorSize
	data := 0
	for i, sb := range l.staged {
		old, ok := l.ckpt[sb.sector]
		if !ok {
			l.recs = append(l.recs, record{i, 0, blockSec})
			data += blockSec
			continue
		}
		run := -1 // first sector of the current differing run
		for s := 0; s <= blockSec; s++ {
			lo, hi := s*disk.SectorSize, (s+1)*disk.SectorSize
			if s < blockSec && !bytes.Equal(sb.data[lo:hi], old[lo:hi]) {
				if run < 0 {
					run = s
				}
			} else if run >= 0 {
				l.recs = append(l.recs, record{i, run, s - run})
				data += s - run
				run = -1
			}
		}
	}
	if len(l.recs) == 0 {
		return 0
	}
	nd := (len(l.recs) + entriesPerDesc - 1) / entriesPerDesc
	return int64(nd + data + 1)
}

// commit stages dirty metadata via Flush and logs it. Caller holds
// busy. After a journal I/O error it does neither and returns the error:
// replay stops at a failed transaction, so none behind it could replay.
func (l *Log) commit(p *sim.Proc) error {
	if l.err != nil {
		return l.err
	}
	var flushErr error
	if l.Flush != nil {
		flushErr = l.Flush(p)
		l.recordErr(flushErr)
	}
	err := l.logStaged(p)
	if err == nil && l.dropLogged {
		// A block this epoch logged was freed and may hold file data
		// next: retire the epoch so no replay writes the stale image.
		err = l.checkpoint(p)
	}
	if flushErr != nil {
		return flushErr
	}
	return err
}

// logStaged writes the staged blocks' records as one transaction and
// promotes the staged copies to committed ones.
func (l *Log) logStaged(p *sim.Proc) error {
	if len(l.staged) == 0 {
		l.EmptyCommits++
		return nil
	}
	need := l.plan()
	if need == 0 {
		// Every staged block equals its committed image.
		l.EmptyCommits++
		l.moveStagedToCkpt()
		return nil
	}
	if l.head+need > l.sectors {
		// Log full: write the committed blocks home and reset. Every
		// record is then a whole block.
		if err := l.checkpoint(p); err != nil {
			return err
		}
		need = l.plan()
	}
	if l.head+need > l.sectors {
		// The transaction alone outgrows the log. Degrade to writing
		// its blocks home directly (a checkpoint of the transaction):
		// consistent if no crash intervenes, torn-window exposed if
		// one does — the log was provisioned too small.
		l.OverflowCommits++
		l.moveStagedToCkpt()
		return l.checkpoint(p)
	}
	img := l.buildTxn(need)
	err := l.writeLog(p, l.base+l.head, img)
	blocks := int64(0)
	for i, r := range l.recs {
		if i == 0 || l.recs[i-1].blk != r.blk {
			blocks++
		}
	}
	l.bus.Emit(telemetry.Event{
		T: l.Sim.Now(), Kind: telemetry.EvLogCommit, Write: true,
		Sector: l.base + l.head, Bytes: int64(len(img)), Blocks: blocks,
	})
	l.Commits++
	l.CommitBlocks += blocks
	l.CommitSectors += need
	l.head += need
	l.index++
	l.moveStagedToCkpt()
	return err
}

// moveStagedToCkpt promotes the staged copies to committed ones; the
// copies they replace go back to Stage.
func (l *Log) moveStagedToCkpt() {
	for _, sb := range l.staged {
		if old, ok := l.ckpt[sb.sector]; ok {
			l.spare = append(l.spare, old)
		}
		l.ckpt[sb.sector] = sb.data
	}
	l.staged = l.staged[:0]
	clear(l.stagedAt)
}

// buildTxn renders the open commit's records as one contiguous
// transaction image of the given sectors — descriptor sector(s), data,
// commit sector — in the Log's reused buffer.
func (l *Log) buildTxn(sectors int64) []byte {
	size := int(sectors) * disk.SectorSize
	if cap(l.txn) < size {
		l.txn = make([]byte, size)
	}
	img := l.txn[:size]
	n := len(l.recs)
	nd := (n + entriesPerDesc - 1) / entriesPerDesc
	clear(img[:nd*disk.SectorSize])
	for d := 0; d < nd; d++ {
		s := img[d*disk.SectorSize:]
		binary.LittleEndian.PutUint64(s[0:], descMagic)
		binary.LittleEndian.PutUint64(s[8:], l.epoch)
		binary.LittleEndian.PutUint64(s[16:], l.index)
		binary.LittleEndian.PutUint32(s[24:], uint32(n))
		binary.LittleEndian.PutUint32(s[28:], uint32(d*entriesPerDesc))
	}
	off := nd * disk.SectorSize
	for i, r := range l.recs {
		sb := l.staged[r.blk]
		e := img[(i/entriesPerDesc)*disk.SectorSize+descHdrBytes+(i%entriesPerDesc)*8:]
		binary.LittleEndian.PutUint64(e, entry(sb.sector+int64(r.off), r.count))
		off += copy(img[off:], sb.data[r.off*disk.SectorSize:(r.off+r.count)*disk.SectorSize])
	}
	c := img[off:]
	clear(c)
	binary.LittleEndian.PutUint64(c[0:], commitMagic)
	binary.LittleEndian.PutUint64(c[8:], l.epoch)
	binary.LittleEndian.PutUint64(c[16:], l.index)
	binary.LittleEndian.PutUint32(c[24:], uint32(n))
	binary.LittleEndian.PutUint64(c[32:], checksum(img[:off]))
	return img
}

// writeLog issues the transaction image at the given absolute sector as
// MaxPhys-sized contiguous transfers — the paper's write clustering
// applied to the log — queued together and waited for once: the commit
// checksum, not write ordering, provides atomicity.
func (l *Log) writeLog(p *sim.Proc, sector int64, img []byte) error {
	maxphys := l.Drv.MaxPhys()
	l.bufs = l.bufs[:0]
	for off := 0; off < len(img); off += maxphys {
		end := min(off+maxphys, len(img))
		l.bufs = append(l.bufs, &driver.Buf{Blkno: sector + int64(off/disk.SectorSize), Data: img[off:end], Write: true})
	}
	err := l.Drv.IO(p, l.bufs...)
	l.recordErr(err)
	return err
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
	if err := l.Drv.IO(p, home...); err != nil {
		// The home copies are not all durable; keep the log as is so
		// recovery can still replay them.
		l.recordErr(err)
		return err
	}
	sb := &driver.Buf{Blkno: l.base, Data: logSuperblock(l.epoch + 1), Write: true}
	if err := l.Drv.IO(p, sb); err != nil {
		l.recordErr(err)
		return err
	}
	l.epoch++
	l.head = 1
	l.index = 0
	l.dropLogged = false
	n := int64(len(l.ckpt))
	for _, b := range home {
		l.spare = append(l.spare, b.Data)
	}
	clear(l.ckpt)
	l.Checkpoints++
	l.CheckpointBlocks += n
	l.bus.Emit(telemetry.Event{
		T: l.Sim.Now(), Kind: telemetry.EvLogCheckpoint, Write: true,
		Blocks: n, Depth: int64(l.epoch),
	})
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
	l.dropLogged = false
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
