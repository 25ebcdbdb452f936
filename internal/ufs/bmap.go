package ufs

import (
	"math"

	"ufsclust/internal/cpu"
	"ufsclust/internal/sim"
)

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
	// translated extent without touching pointer blocks. A hit answers
	// what a fresh bmap from lbn would.
	c := &ip.bmapCache
	if fs.BmapCache && lbn >= c.lbn && lbn < c.lbn+int64(c.n) {
		fs.chargeCPU(p, cpu.Bmap, cpu.BmapInstr/8)
		fs.BmapCacheHits++
		off := int32(lbn - c.lbn)
		return c.fsbn + off*fs.SB.Frag, fs.clip(ip, lbn, int(c.n-off)), nil
	}
	fs.chargeCPU(p, cpu.Bmap, cpu.BmapInstr)
	fs.BmapCalls++
	// With the cache on, measure the whole extent so later hits can
	// answer from any block of it; otherwise stop at maxcontig.
	limit := int(fs.SB.Maxcontig)
	if fs.BmapCache {
		limit = math.MaxInt
	}
	fsbn, n, err := fs.bmapSlow(p, ip, pp, limit)
	if err == nil && fs.BmapCache && fsbn != 0 {
		c.lbn, c.fsbn, c.n = lbn, fsbn, int32(n)
	}
	return fsbn, fs.clip(ip, lbn, n), err
}

// bmapSlow descends to the table of data-block addresses that holds
// lbn's entry — the dinode's direct array, or the last pointer block on
// the path — and measures the extent there. The table travels as a byte
// slice (nil = the direct array) and nothing here defers or closes over
// the locked buffer: this runs on every getpage and must not allocate.
func (fs *Fs) bmapSlow(p *sim.Proc, ip *Inode, pp ptrPath, limit int) (int32, int, error) {
	if pp.depth == 0 {
		addr, n := fs.runAt(ip, nil, int64(pp.root), limit)
		return addr, n, nil
	}
	b, err := fs.lastIndir(p, ip, pp, false)
	if b == nil {
		return 0, 1, err // a hole high in the tree, unless err
	}
	addr, n := fs.runAt(ip, b.Data, pp.idx[pp.depth-1], limit)
	fs.BC.Brelse(b)
	return addr, n, nil
}

// runAt returns the address in entry at of table and the length of the
// contiguous run of blocks starting there: at most limit, never into
// the next table. A hole is address 0 with length 1.
func (fs *Fs) runAt(ip *Inode, table []byte, at int64, limit int) (int32, int) {
	addr := ip.dataAddr(table, at)
	if addr == 0 {
		return 0, 1
	}
	n := int64(len(ip.D.DB))
	if table != nil {
		n = int64(len(table) / 4)
	}
	run := 1
	for at+int64(run) < n && run < limit &&
		ip.dataAddr(table, at+int64(run)) == addr+int32(run)*fs.SB.Frag {
		run++
	}
	return addr, run
}

// clip turns an extent of n blocks from lbn into the run Bmap returns:
// at most maxcontig (below 1 counts as 1), never past the end of the
// file.
func (fs *Fs) clip(ip *Inode, lbn int64, n int) int {
	run := min(n, max(int(fs.SB.Maxcontig), 1))
	lastLbn := (ip.D.Size + int64(fs.SB.Bsize) - 1) / int64(fs.SB.Bsize)
	if max := int(lastLbn - lbn); run > max && max >= 1 {
		run = max
	}
	return run
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
// holding the data block's own address and returns it locked. It is the
// only descent below IB[k]. A zero pointer on the way is a hole: lastIndir
// returns nil, or, when grow, allocates the missing pointer block and
// goes on. The parent is released while allocMetaBlock runs — it acquires
// cylinder-group buffers, and holding the parent across that would pin a
// locked buffer over an unrelated wait. Re-reading the parent to install
// the pointer is a cache hit (it was just released, so it cannot have
// been the eviction victim), and the inode lock keeps the slot ours in
// between.
func (fs *Fs) lastIndir(p *sim.Proc, ip *Inode, pp ptrPath, grow bool) (*MBuf, error) {
	addr := ip.D.IB[pp.root]
	if addr == 0 && grow {
		var err error
		if addr, err = fs.allocMetaBlock(p, ip); err != nil {
			return nil, err
		}
		ip.D.IB[pp.root] = addr
		ip.MarkDirty()
	}
	for lvl := 0; addr != 0; lvl++ {
		b, err := fs.BC.Bread(p, addr)
		if err != nil || lvl == pp.depth-1 {
			return b, err
		}
		next := getIndir(b.Data, pp.idx[lvl])
		fs.BC.Brelse(b)
		if next == 0 && grow {
			if next, err = fs.allocMetaBlock(p, ip); err != nil {
				return nil, err
			}
			if b, err = fs.BC.Bread(p, addr); err != nil {
				return nil, err
			}
			putIndir(b.Data, pp.idx[lvl], next)
			fs.BC.Bdwrite(b)
		}
		addr = next
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
	fs.chargeCPU(p, cpu.Bmap, cpu.BmapInstr)
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

	b, err := fs.lastIndir(p, ip, pp, true)
	if err != nil {
		return 0, err
	}
	// Allocate the data block the way lastIndir allocates pointer
	// blocks: with the table released.
	table, idx := b.Fsbn, pp.idx[pp.depth-1]
	fsbn, prev := getIndir(b.Data, idx), int32(0)
	if idx > 0 {
		prev = getIndir(b.Data, idx-1)
	}
	fs.BC.Brelse(b)
	if fsbn != 0 {
		return fsbn, nil
	}
	if idx == 0 {
		prev = fs.prevAddr(p, ip, lbn)
	}
	if fsbn, err = fs.AllocBlock(p, ip, fs.BlkPref(ip, lbn, prev)); err != nil {
		return 0, err
	}
	if b, err = fs.BC.Bread(p, table); err != nil {
		return 0, err
	}
	putIndir(b.Data, idx, fsbn)
	fs.BC.Bdwrite(b)
	return fsbn, nil
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
