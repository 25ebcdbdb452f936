package ufs

import (
	"ufsclust/internal/cpu"
	"ufsclust/internal/sim"
)

const bmapInstr = 1100 // CPU instructions per bmap translation

// Bmap translates logical block lbn of ip to its fragment address. It
// also returns the length, in blocks, of the contiguous run starting at
// lbn — the paper's one interface change: "We modified it to return a
// length as well as the physical block number... The length returned is
// at most maxcontig blocks long and is used as the effective cluster
// size by the caller."
//
// A hole returns fsbn 0 with length 1. Indirect blocks are fetched
// through the metadata cache and cost simulated I/O time, which is why
// the paper's Further Work wants a bmap cache.
func (fs *Fs) Bmap(p *sim.Proc, ip *Inode, lbn int64) (int32, int, error) {
	pp, err := fs.SB.ptrPath(lbn)
	if err != nil {
		return 0, 0, err
	}
	// The Further Work bmap cache: serve from the inode's last
	// translation run without touching pointer blocks.
	if fs.BmapCache && ip.bmapCache.valid &&
		lbn >= ip.bmapCache.lbn && lbn < ip.bmapCache.lbn+int64(ip.bmapCache.run) {
		fs.chargeCPU(p, cpu.Bmap, bmapInstr/8)
		fs.BmapCacheHits++
		off := int32(lbn - ip.bmapCache.lbn)
		return ip.bmapCache.fsbn + off*fs.SB.Frag, int(ip.bmapCache.run - off), nil
	}
	fs.chargeCPU(p, cpu.Bmap, bmapInstr)
	fs.BmapCalls++
	fsbn, run, err := fs.bmapSlow(p, ip, lbn, pp)
	if err == nil && fs.BmapCache && fsbn != 0 {
		ip.bmapCache.valid = true
		ip.bmapCache.lbn = lbn
		ip.bmapCache.fsbn = fsbn
		ip.bmapCache.run = int32(run)
	}
	return fsbn, run, err
}

// bmapSlow descends to the table of data-block addresses that holds
// lbn's entry — the dinode's direct array, or the last pointer block on
// the path — and measures the run there. The table travels as a byte
// slice (nil = the direct array) and nothing here defers or closes over
// the locked buffer: this runs on every getpage and must not allocate.
func (fs *Fs) bmapSlow(p *sim.Proc, ip *Inode, lbn int64, pp ptrPath) (int32, int, error) {
	if pp.depth == 0 {
		addr, run := fs.runAt(ip, nil, int64(pp.root), lbn)
		return addr, run, nil
	}
	b, err := fs.lastIndir(p, ip, pp)
	if b == nil {
		return 0, 1, err // a hole high in the tree, unless err
	}
	addr, run := fs.runAt(ip, b.Data, pp.idx[pp.depth-1], lbn)
	fs.BC.Brelse(b)
	return addr, run, nil
}

// runAt returns the address in entry at of table and the length of the
// contiguous run of blocks starting there: at most maxcontig, never
// into the next table, never past the end of the file. A hole is
// address 0 with length 1.
func (fs *Fs) runAt(ip *Inode, table []byte, at, lbn int64) (int32, int) {
	addr := ip.dataAddr(table, at)
	if addr == 0 {
		return 0, 1
	}
	n := int64(len(ip.D.DB))
	if table != nil {
		n = int64(len(table) / 4)
	}
	run := 1
	for at+int64(run) < n && run < int(fs.SB.Maxcontig) &&
		ip.dataAddr(table, at+int64(run)) == addr+int32(run)*fs.SB.Frag {
		run++
	}
	lastLbn := (ip.D.Size + int64(fs.SB.Bsize) - 1) / int64(fs.SB.Bsize)
	if max := int(lastLbn - lbn); run > max && max >= 1 {
		run = max
	}
	return addr, run
}

// dataAddr returns entry i of a table of data-block addresses: the
// last pointer block on a path, or, when table is nil, ip's direct
// array.
func (ip *Inode) dataAddr(table []byte, i int64) int32 {
	if table == nil {
		return ip.D.DB[i]
	}
	return getIndir(table, i)
}

// lastIndir follows pp (depth >= 1) from ip down to the pointer block
// holding the data block's own address and returns it locked. It
// returns nil when a pointer on the way is zero: the block is a hole.
func (fs *Fs) lastIndir(p *sim.Proc, ip *Inode, pp ptrPath) (*MBuf, error) {
	addr := ip.D.IB[pp.root]
	for lvl := 0; addr != 0; lvl++ {
		b, err := fs.BC.Bread(p, addr)
		if err != nil || lvl == pp.depth-1 {
			return b, err
		}
		addr = getIndir(b.Data, pp.idx[lvl])
		fs.BC.Brelse(b)
	}
	return nil, nil
}

func getIndir(data []byte, i int64) int32 {
	off := i * 4
	return int32(uint32(data[off]) | uint32(data[off+1])<<8 |
		uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
}

func putIndir(data []byte, i int64, v int32) {
	off := i * 4
	data[off] = byte(v)
	data[off+1] = byte(v >> 8)
	data[off+2] = byte(v >> 16)
	data[off+3] = byte(v >> 24)
}

// prevAddr returns the fragment address of lbn-1 if it is allocated,
// else 0.
func (fs *Fs) prevAddr(p *sim.Proc, ip *Inode, lbn int64) int32 {
	if lbn == 0 {
		return 0
	}
	if pp, _ := fs.SB.ptrPath(lbn - 1); pp.depth == 0 {
		return ip.D.DB[pp.root]
	}
	fsbn, _, err := fs.Bmap(p, ip, lbn-1)
	if err != nil {
		return 0
	}
	return fsbn
}

// BmapAlloc ensures logical block lbn of ip has backing store for size
// bytes (a full block, or a fragment tail when lbn is in the direct
// range), allocating data blocks, growing tails in place when possible,
// and allocating indirect blocks on demand. Callers must invoke it
// BEFORE updating ip.D.Size, so the old tail size is still computable.
// It returns the (possibly new) fragment address.
func (fs *Fs) BmapAlloc(p *sim.Proc, ip *Inode, lbn int64, size int) (int32, error) {
	ip.InvalidateBmapCache()
	fs.chargeCPU(p, cpu.Bmap, bmapInstr)
	if size <= 0 || size > int(fs.SB.Bsize) {
		panic("ufs: BmapAlloc size out of range") // simlint:invariant -- write path sizes requests from the superblock
	}
	pp, err := fs.SB.ptrPath(lbn)
	if err != nil {
		return 0, err
	}
	if pp.depth == 0 {
		return fs.allocDirect(p, ip, lbn, fs.SB.BlkFrags(lbn*int64(fs.SB.Bsize)+int64(size), lbn))
	}

	// Indirect ranges: walk the pointer chain, growing it where it ends.
	ib, err := fs.ensureIndir(p, ip, &ip.D.IB[pp.root])
	if err != nil {
		return 0, err
	}
	for lvl := 0; lvl < pp.depth-1; lvl++ {
		b, err := fs.BC.Bread(p, ib)
		if err != nil {
			return 0, err
		}
		next := getIndir(b.Data, pp.idx[lvl])
		fs.BC.Brelse(b)
		if next == 0 {
			// Allocate with the parent buffer released: allocMetaBlock
			// acquires cylinder-group buffers, and holding b across that
			// would pin a locked buffer over an unrelated wait. Re-reading
			// to install the pointer is a cache hit — b was just released,
			// so it cannot have been the eviction victim — and the inode
			// lock keeps the slot ours in between.
			if next, err = fs.allocMetaBlock(p, ip); err != nil {
				return 0, err
			}
			if b, err = fs.BC.Bread(p, ib); err != nil {
				return 0, err
			}
			putIndir(b.Data, pp.idx[lvl], next)
			fs.BC.Bdwrite(b)
		}
		ib = next
	}
	return fs.allocInIndir(p, ip, ib, pp.idx[pp.depth-1], lbn)
}

// allocDirect backs direct block lbn with needFrags fragments: a fresh
// allocation, or a tail grown in place or moved.
func (fs *Fs) allocDirect(p *sim.Proc, ip *Inode, lbn int64, needFrags int32) (int32, error) {
	old := ip.D.DB[lbn]
	// A block the size does not reach yet counts as whole, so it is
	// never "grown".
	oldFrags := fs.SB.BlkFrags(ip.D.Size, lbn)
	if old != 0 && needFrags <= oldFrags {
		return old, nil
	}
	if old != 0 {
		// Grow the tail: extend in place, or move it.
		if ok, err := fs.ExtendFrags(p, ip, old, oldFrags, needFrags); err == nil && ok {
			return old, nil
		}
	}
	pref := fs.BlkPref(ip, lbn, fs.prevAddr(p, ip, lbn))
	var fsbn int32
	var err error
	if needFrags == fs.SB.Frag {
		fsbn, err = fs.AllocBlock(p, ip, pref)
	} else {
		fsbn, err = fs.AllocFrags(p, ip, pref, needFrags)
	}
	if err != nil {
		return 0, err
	}
	if old != 0 {
		if err := fs.FreeFrags(p, old, oldFrags); err != nil {
			return 0, err
		}
		ip.D.Blocks -= oldFrags
	}
	ip.D.DB[lbn] = fsbn
	ip.MarkDirty()
	return fsbn, nil
}

// ensureIndir allocates (zeroed) the indirect block *slot if missing and
// returns its address.
func (fs *Fs) ensureIndir(p *sim.Proc, ip *Inode, slot *int32) (int32, error) {
	if *slot != 0 {
		return *slot, nil
	}
	fsbn, err := fs.allocMetaBlock(p, ip)
	if err != nil {
		return 0, err
	}
	*slot = fsbn
	ip.MarkDirty()
	return fsbn, nil
}

// allocMetaBlock allocates and zeroes a pointer block.
func (fs *Fs) allocMetaBlock(p *sim.Proc, ip *Inode) (int32, error) {
	fsbn, err := fs.AllocBlock(p, ip, fs.BlkPref(ip, 0, 0))
	if err != nil {
		return 0, err
	}
	b := fs.BC.getblk(p, fsbn)
	for i := range b.Data {
		b.Data[i] = 0
	}
	b.valid = true
	fs.BC.Bdwrite(b)
	return fsbn, nil
}

// allocInIndir ensures entry idx of the indirect block at ib points to a
// data block, allocating one if needed.
func (fs *Fs) allocInIndir(p *sim.Proc, ip *Inode, ib int32, idx int64, lbn int64) (int32, error) {
	b, err := fs.BC.Bread(p, ib)
	if err != nil {
		return 0, err
	}
	addr := getIndir(b.Data, idx)
	if addr != 0 {
		fs.BC.Brelse(b)
		return addr, nil
	}
	var prev int32
	if idx > 0 {
		prev = getIndir(b.Data, idx-1)
	} else {
		prev = fs.prevAddr(p, ip, lbn)
	}
	fsbn, err := fs.AllocBlock(p, ip, fs.BlkPref(ip, lbn, prev))
	if err != nil {
		fs.BC.Brelse(b)
		return 0, err
	}
	putIndir(b.Data, idx, fsbn)
	fs.BC.Bdwrite(b)
	return fsbn, nil
}
