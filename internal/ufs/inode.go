package ufs

import (
	"cmp"
	"fmt"
	"slices"

	"ufsclust/internal/cpu"
	"ufsclust/internal/detsort"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/wal"
)

// Fs is a mounted file system instance (the vfs object).
type Fs struct {
	Sim *sim.Sim
	CPU *cpu.Model // may be nil
	Drv *driver.Driver
	SB  *Superblock
	BC  *Bcache

	itable map[int32]*Inode
	// igets counts the inodes Iget has brought in core; each Inode
	// keeps its number in loaded.
	igets int64
	// dirtyInodes is, on a journaled mount, every in-core inode
	// MarkDirty has touched since a commit last swept it, in inode
	// order: the commit visits these instead of the whole table.
	dirtyInodes []*Inode
	// sbImage is the block-sized scratch the journal's superblock
	// image is encoded into (wal.Stage copies it).
	sbImage []byte
	cgs     map[int32]*CG
	// csum is the in-core free-block count per group (the fs_csp
	// summary array UFS loads at mount), used by pickCg without I/O.
	csum []int32

	// BmapCache enables the per-inode translation cache (Further Work:
	// "Bmap cache"). Off by default to match the paper's measured
	// system.
	BmapCache bool

	// OrderedWrites replaces the synchronous metadata writes that UFS
	// uses for on-disk ordering with asynchronous B_ORDER-flagged
	// writes the driver may not reorder (Further Work: "B_ORDER").
	OrderedWrites bool

	// J, when non-nil, is the write-ahead metadata journal Mount
	// attached because the superblock carries a log region (see
	// journal.go): metadata writes become delayed writes committed by
	// transaction, and Sync checkpoints the log.
	J *wal.Log

	// Stats for the future-work features.
	BmapCacheHits                     int64
	SyncMetaWrites, OrderedMetaWrites int64
	JournalMetaWrites                 int64

	// rotor for cylinder-group selection of new files.
	cgRotor int32

	// Stats
	BmapCalls, AllocCalls, FragAllocs, ReallocFrags int64
}

// MountOpts tunes a mount.
type MountOpts struct {
	// BmapCache and OrderedWrites enable the corresponding Further Work
	// features (see the Fs fields of the same names).
	BmapCache     bool
	OrderedWrites bool
}

// Mount reads the superblock and returns a usable file system.
func Mount(s *sim.Sim, cpuModel *cpu.Model, drv *driver.Driver, opts MountOpts) (*Fs, error) {
	sb, err := ReadSuperblock(drv.Disk)
	if err != nil {
		return nil, err
	}
	fs := &Fs{
		Sim:           s,
		CPU:           cpuModel,
		Drv:           drv,
		SB:            sb,
		itable:        make(map[int32]*Inode),
		cgs:           make(map[int32]*CG),
		BmapCache:     opts.BmapCache,
		OrderedWrites: opts.OrderedWrites,
	}
	fs.BC = NewBcache(s, cpuModel, drv, sb)
	// Load the per-group summary (mount-time work, untimed like the
	// superblock read).
	fs.csum = make([]int32, sb.Ncg)
	im := image{d: drv.Disk, sb: sb}
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		cg, err := UnmarshalCG(sb, im.read(sb.CgHeader(cgx), sb.cgHdrFrags()))
		if err != nil {
			return nil, fmt.Errorf("mount: cg %d: %w", cgx, err)
		}
		fs.csum[cgx] = cg.Nbfree
	}
	if sb.LogFrags > 0 {
		if err := fs.attachLog(); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// Inode is the in-core inode: the on-disk dinode plus the file system's
// bookkeeping. The data path's per-file state (read cursors, delayed
// writes, the write limit) lives in internal/core's vnode.
type Inode struct {
	Fs  *Fs
	Ino int32
	D   Dinode

	dirty bool
	refs  int

	// queued: the inode is in Fs.dirtyInodes. loaded: the value of
	// Fs.igets when Iget read it in.
	queued bool
	loaded int64

	// bmapCache holds the most recently translated extent when the
	// mount enables the paper's "bmap cache" future-work idea: "A small
	// cache in the inode could reduce the cost of bmap substantially."
	// The extent runs from lbn to a break in contiguity or the end of
	// its pointer table, whatever maxcontig and the file size say; n 0
	// is an empty cache.
	bmapCache struct {
		lbn  int64 // first logical block of the cached extent
		fsbn int32 // its fragment address
		n    int32 // blocks in the extent
	}
}

// InvalidateBmapCache drops the cached extent; callers that change the
// block map (allocation, truncation) must invoke it.
func (ip *Inode) InvalidateBmapCache() { ip.bmapCache.n = 0 }

// MarkDirty notes that the dinode must be written back, and on a
// journaled mount queues it for the next commit.
func (ip *Inode) MarkDirty() {
	ip.dirty = true
	if fs := ip.Fs; fs.J != nil && !ip.queued {
		ip.queued = true
		i, _ := slices.BinarySearchFunc(fs.dirtyInodes, ip.Ino, byIno)
		fs.dirtyInodes = slices.Insert(fs.dirtyInodes, i, ip)
	}
}

// byIno orders inodes by number, for searching Fs.dirtyInodes.
func byIno(ip *Inode, ino int32) int { return cmp.Compare(ip.Ino, ino) }

// Iget returns the in-core inode for ino, reading it if necessary.
func (fs *Fs) Iget(p *sim.Proc, ino int32) (*Inode, error) {
	if ino < 0 || ino >= fs.SB.Ncg*fs.SB.Ipg {
		return nil, fmt.Errorf("ufs: inode %d out of range", ino)
	}
	if ip, ok := fs.itable[ino]; ok {
		ip.refs++
		return ip, nil
	}
	b, err := fs.BC.Bread(p, fs.SB.InoToFsba(ino))
	if err != nil {
		return nil, err
	}
	off := fs.SB.InoBlockOff(ino)
	di := UnmarshalDinode(b.Data[off : off+DinodeSize])
	fs.BC.Brelse(b)
	fs.igets++
	ip := &Inode{Fs: fs, Ino: ino, D: di, refs: 1, loaded: fs.igets}
	fs.itable[ino] = ip
	return ip, nil
}

// Iput releases a reference, writing the inode back if dirty. The
// in-core inode stays in the table (there is no cache pressure on it in
// the simulation). A failed write-back has no caller to report to; it
// lands in the cache's sticky error (see Bcache.Err).
func (fs *Fs) Iput(p *sim.Proc, ip *Inode) {
	ip.refs--
	if ip.dirty {
		if err := fs.IUpdate(p, ip, false); err != nil {
			fs.BC.recordErr(err)
		}
	}
}

// IUpdate writes the dinode to its inode block; sync forces the update
// to be ordered on disk before dependent operations — by waiting for a
// synchronous write, or, with OrderedWrites, by an asynchronous
// B_ORDER write the driver may not reorder.
func (fs *Fs) IUpdate(p *sim.Proc, ip *Inode, sync bool) error {
	b, err := fs.BC.Bread(p, fs.SB.InoToFsba(ip.Ino))
	if err != nil {
		return err
	}
	ip.D.MarshalInto(b.Data[fs.SB.InoBlockOff(ip.Ino) : fs.SB.InoBlockOff(ip.Ino)+DinodeSize])
	if sync {
		err = fs.metaWrite(p, b)
	} else {
		fs.BC.Bdwrite(b)
	}
	ip.dirty = false
	return err
}

// loadCG returns the in-core cylinder group, reading it on first touch.
func (fs *Fs) loadCG(p *sim.Proc, cgx int32) (*CG, error) {
	if cg, ok := fs.cgs[cgx]; ok {
		return cg, nil
	}
	b, err := fs.BC.Bread(p, fs.SB.CgHeader(cgx))
	if err != nil {
		return nil, err
	}
	cg, err := UnmarshalCG(fs.SB, b.Data)
	fs.BC.Brelse(b)
	if err != nil {
		return nil, fmt.Errorf("ufs: cg %d: %w", cgx, err)
	}
	fs.cgs[cgx] = cg
	return cg, nil
}

// storeCG pushes the in-core group back through the buffer cache as a
// delayed write.
func (fs *Fs) storeCG(p *sim.Proc, cg *CG) error {
	b, err := fs.BC.Bread(p, fs.SB.CgHeader(cg.Cgx))
	if err != nil {
		return err
	}
	cg.MarshalInto(b.Data)
	fs.BC.Bdwrite(b)
	return nil
}

// Sync writes back every dirty inode, cylinder group, the superblock,
// and flushes the metadata cache. Inodes and groups are visited in
// ascending number order so the resulting I/O sequence — and therefore
// virtual time — is identical on every run. Like update(8), it keeps
// going past failures and returns the first error.
func (fs *Fs) Sync(p *sim.Proc) error {
	if fs.J != nil {
		// Journaled: one commit captures every dirty inode, buffer,
		// and the superblock (stageCommit sweeps them all), then the
		// checkpoint writes the committed blocks home and resets the
		// log — after Sync the image itself is current.
		fs.J.Begin(p)
		err := fs.J.End(p)
		if cerr := fs.J.Checkpoint(p); err == nil {
			err = cerr
		}
		return err
	}
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	for _, ino := range detsort.Keys(fs.itable) {
		if ip := fs.itable[ino]; ip.dirty {
			keep(fs.IUpdate(p, ip, false))
		}
	}
	for _, cgx := range detsort.Keys(fs.cgs) {
		keep(fs.storeCG(p, fs.cgs[cgx]))
	}
	b := fs.BC.getblk(p, sbFragOffset)
	b.valid = true
	fs.SB.MarshalInto(b.Data) // the superblock's block holds nothing else
	fs.BC.Bdwrite(b)
	keep(fs.BC.Flush(p))
	return firstErr
}

// SyncInode makes everything fsync promises durable for one file whose
// data pages have already been written: the inode (size, block
// pointers) and any dirty indirect blocks. Pointer blocks go out
// before the inode that makes them reachable, mirroring the data-
// before-pointers ordering the caller already provided.
func (fs *Fs) SyncInode(p *sim.Proc, ip *Inode) error {
	if fs.J != nil {
		// Journaled fsync: the commit's single sequential log write
		// carries the inode, its indirect blocks, the bitmaps, and the
		// superblock atomically — the data-before-pointers sequencing
		// below exists only to order in-place writes, which no longer
		// happen.
		fs.J.Begin(p)
		return fs.J.End(p)
	}
	for k := len(ip.D.IB) - 1; k >= 0; k-- {
		if ip.D.IB[k] == 0 {
			continue
		}
		err := fs.eachIndir(p, ip.D.IB[k], k+1, 0, 0, func(ib int32) error { return fs.BC.FlushBlock(p, ib) }, nil)
		if err != nil {
			return err
		}
	}
	if ip.dirty {
		return fs.IUpdate(p, ip, true)
	}
	// The last update may still be sitting in the cache as a delayed
	// write; push the inode block itself.
	return fs.BC.FlushBlock(p, fs.SB.InoToFsba(ip.Ino))
}

// IOErr returns the file system's sticky first I/O error, if any:
// failures with no synchronous caller (delayed metadata write-back,
// ordered writes, evictions, a log write whose commit a later fsync
// would otherwise take for granted) are reported here and by the next
// fsync.
func (fs *Fs) IOErr() error {
	if err := fs.BC.Err(); err != nil || fs.J == nil {
		return err
	}
	return fs.J.Err()
}

// SyncImage is the offline equivalent of Sync: spill all state to the
// image with no simulated time, so fsck and direct image inspection see
// a consistent file system.
func (fs *Fs) SyncImage() {
	if fs.J != nil {
		// Write the journal's committed copies home first (clean cache
		// buffers may have been staged and dropped, so the cache alone
		// no longer covers them); the spill below then overwrites with
		// any newer in-memory state, and the log comes back empty.
		fs.J.CheckpointImage()
	}
	im := image{d: fs.Drv.Disk, sb: fs.SB}
	for _, ino := range detsort.Keys(fs.itable) {
		ip := fs.itable[ino]
		fsba, off := fs.SB.InoToFsba(ip.Ino), fs.SB.InoBlockOff(ip.Ino)
		// Merge through the buffer cache if the block is cached there.
		if mb, ok := fs.BC.bufs[fs.BC.align(fsba)]; ok && mb.valid {
			ip.D.MarshalInto(mb.Data[off:])
			fs.BC.markDirty(mb)
		} else {
			b := im.read(fsba, fs.SB.Frag)
			ip.D.MarshalInto(b[off:])
			im.write(fsba, b)
		}
		ip.dirty = false
	}
	for _, fsbn := range detsort.Keys(fs.BC.bufs) {
		if b := fs.BC.bufs[fsbn]; b.dirty {
			im.write(b.Fsbn, b.Data)
			b.dirty = false
		}
	}
	for _, cgx := range detsort.Keys(fs.cgs) {
		im.write(fs.SB.CgHeader(cgx), fs.cgs[cgx].Marshal(fs.SB))
	}
	im.write(sbFragOffset, fs.SB.Marshal())
}

// chargeCPU charges instructions if a CPU model is attached.
func (fs *Fs) chargeCPU(p *sim.Proc, c cpu.Category, instr int64) {
	if fs.CPU != nil && p != nil {
		fs.CPU.Use(p, c, instr)
	}
}
