package ufs

import (
	"fmt"

	"ufsclust/internal/cpu"
	"ufsclust/internal/detsort"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
)

// Fs is a mounted file system instance (the vfs object).
type Fs struct {
	Sim *sim.Sim
	CPU *cpu.Model // may be nil
	Drv *driver.Driver
	SB  *Superblock
	BC  *Bcache

	itable map[int32]*Inode
	cgs    map[int32]*CG
	// csum is the in-core free-block count per group (the fs_csp
	// summary array UFS loads at mount), used by pickCg without I/O.
	csum []int32

	// WriteLimit is the per-file cap on bytes outstanding in the disk
	// queue (the paper's fairness semaphore); 0 disables the limit.
	WriteLimit int64

	// BmapCache enables the per-inode translation cache (Further Work:
	// "Bmap cache"). Off by default to match the paper's measured
	// system.
	BmapCache bool

	// OrderedWrites replaces the synchronous metadata writes that UFS
	// uses for on-disk ordering with asynchronous B_ORDER-flagged
	// writes the driver may not reorder (Further Work: "B_ORDER").
	OrderedWrites bool

	// J, when non-nil, is the attached write-ahead metadata journal
	// (see MetaJournal in journal.go): metadata writes become delayed
	// writes committed by transaction, and Sync checkpoints the log.
	J MetaJournal

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
	Nbuf       int   // metadata buffer count; default 64
	WriteLimit int64 // bytes; 0 = unlimited
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
		WriteLimit:    opts.WriteLimit,
		BmapCache:     opts.BmapCache,
		OrderedWrites: opts.OrderedWrites,
	}
	fs.BC = NewBcache(s, cpuModel, drv, sb, opts.Nbuf)
	// Load the per-group summary (mount-time work, untimed like the
	// superblock read).
	fs.csum = make([]int32, sb.Ncg)
	im := image{drv.Disk, sb}
	// The header and its two bitmaps, not the whole header block.
	need := (int32(cgHdrSize) + (sb.Ipg+7)/8 + (sb.Fpg+7)/8 + sb.Fsize - 1) / sb.Fsize
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		cg, err := UnmarshalCG(sb, im.read(sb.CgHeader(cgx), need))
		if err != nil {
			return nil, fmt.Errorf("mount: cg %d: %w", cgx, err)
		}
		fs.csum[cgx] = cg.Nbfree
	}
	return fs, nil
}

// Inode is the in-core inode: the on-disk dinode plus the fields the
// paper's algorithms live in.
type Inode struct {
	Fs  *Fs
	Ino int32
	D   Dinode

	dirty bool
	refs  int

	// Nextr is the predicted logical block of the next read; read-ahead
	// triggers when a fault matches it (figure 3).
	Nextr int64
	// Nextrio is the logical block where the next cluster read-ahead
	// should begin (figure 6).
	Nextrio int64
	// Delayoff/Delaylen describe the run of delayed ("lied about")
	// write pages not yet pushed (figures 7 and 8). Byte units.
	Delayoff int64
	Delaylen int64

	// WriteSem implements the per-file write limit: bytes of I/O this
	// file may have in the disk queue. Nil when the limit is off.
	WriteSem *sim.Semaphore

	// bmapCache holds the most recent translation run when the mount
	// enables the paper's "bmap cache" future-work idea: "A small cache
	// in the inode could reduce the cost of bmap substantially."
	bmapCache struct {
		valid bool
		lbn   int64 // first logical block of the cached run
		fsbn  int32 // its fragment address
		run   int32 // blocks in the run
	}
}

// InvalidateBmapCache drops the cached translation; callers that change
// the block map (allocation, truncation) must invoke it.
func (ip *Inode) InvalidateBmapCache() { ip.bmapCache.valid = false }

// Size returns the file length in bytes.
func (ip *Inode) Size() int64 { return ip.D.Size }

// MarkDirty notes that the dinode must be written back.
func (ip *Inode) MarkDirty() { ip.dirty = true }

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
	ip := &Inode{Fs: fs, Ino: ino, D: di, refs: 1}
	if fs.WriteLimit > 0 {
		ip.WriteSem = sim.NewSemaphore(fmt.Sprintf("wlimit.%d", ino), fs.WriteLimit)
	}
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
	copy(b.Data, cg.Marshal(fs.SB))
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
		// and the superblock (StageCommit sweeps them all), then the
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
	if !b.valid {
		b.valid = true
	}
	copy(b.Data, sbBlockImage(fs.SB))
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
		err := fs.eachIndir(p, ip.D.IB[k], k+1, func(ib int32) error { return fs.BC.FlushBlock(p, ib) })
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
// ordered writes, evictions) are reported here and by the next fsync.
func (fs *Fs) IOErr() error { return fs.BC.Err() }

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
	im := image{fs.Drv.Disk, fs.SB}
	for _, ino := range detsort.Keys(fs.itable) {
		ip := fs.itable[ino]
		fsba, off := fs.SB.InoToFsba(ip.Ino), fs.SB.InoBlockOff(ip.Ino)
		// Merge through the buffer cache if the block is cached there.
		if mb, ok := fs.BC.bufs[fs.BC.align(fsba)]; ok && mb.valid {
			ip.D.MarshalInto(mb.Data[off:])
			mb.dirty = true
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

// sbBlockImage renders the superblock into a block-sized buffer (its
// block also holds nothing else).
func sbBlockImage(sb *Superblock) []byte {
	out := make([]byte, sb.Bsize)
	copy(out, sb.Marshal())
	return out
}

// chargeCPU charges instructions if a CPU model is attached.
func (fs *Fs) chargeCPU(p *sim.Proc, c cpu.Category, instr int64) {
	if fs.CPU != nil && p != nil {
		fs.CPU.Use(p, c, instr)
	}
}
