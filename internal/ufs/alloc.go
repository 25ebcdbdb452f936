package ufs

import (
	"errors"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
)

// ErrNoSpace is returned when an allocation would eat into the minfree
// reserve — the slack that, per the paper, is what lets the allocator
// "think ahead enough that it has a good chance of being able to
// allocate blocks in the desired location".
var ErrNoSpace = errors.New("ufs: file system full")

// ErrNoInodes is returned when no inode is free.
var ErrNoInodes = errors.New("ufs: out of inodes")

const allocInstr = 1800 // CPU instructions charged per allocator call

// GapBlocks returns how many blocks the allocator leaves between
// consecutive logical blocks: the software-maintained rotational delay
// of figure 4. Zero when rotdelay is zero (figure 5).
func (sb *Superblock) GapBlocks() int32 {
	if sb.Rotdelay <= 0 {
		return 0
	}
	// Sectors passing per millisecond, times the delay, rounded up to
	// blocks.
	sectorsPerBlock := sb.Bsize / 512
	sectors := sb.Rotdelay * sb.Nsect * sb.Rps / 1000
	g := (sectors + sectorsPerBlock - 1) / sectorsPerBlock
	if g < 1 {
		g = 1
	}
	return g
}

// BlkPref computes the preferred location for logical block lbn of ip,
// given the fragment address of the previous allocated block (0 if
// none). This is where rotdelay placement happens: with a gap of g
// blocks the preference is prev + (1+g) blocks. Every maxbpg blocks the
// preference jumps to a cylinder group with above-average free space,
// so one file cannot exhaust a group — and, on a device with a write
// unit, starts the new run on a row boundary, so the first cluster
// pushed there is a whole row rather than the ragged end of one.
func (fs *Fs) BlkPref(ip *Inode, lbn int64, prev int32) int32 {
	if prev > 0 {
		if mb := int64(fs.SB.Maxbpg); mb > 0 && lbn > 0 && lbn%mb == 0 {
			pref := fs.SB.CgDmin(fs.pickCg(fs.SB.DtoCg(prev)))
			if row := int32(fs.RowBlocks()) * fs.SB.Frag; row > 0 {
				pref = (pref + row - 1) / row * row
			}
			return pref
		}
		return prev + (1+fs.SB.GapBlocks())*fs.SB.Frag
	}
	// First block (or after a hole): start in the inode's group.
	cg := fs.SB.InoToCg(ip.Ino)
	return fs.SB.CgDmin(cg)
}

// ClusterBlocks returns the effective cluster size in blocks: the
// superblock's maxcontig capped by the driver's maxphys.
func (fs *Fs) ClusterBlocks() int {
	mc := int(fs.SB.Maxcontig)
	if mc < 1 {
		mc = 1
	}
	if byPhys := fs.Drv.MaxPhys() / int(fs.SB.Bsize); mc > byPhys {
		mc = byPhys
	}
	return mc
}

// RowBlocks returns the device's write unit (disk.Device.WriteUnit) in
// file system blocks, or 0 when there is none to honour: the device
// reports no unit, the unit is not a whole number of blocks, or it is
// larger than a cluster — no single transfer could ever cover a row, so
// aligning to rows would only shrink transfers. Fragment address 0 is
// device sector 0, so row boundaries fall on multiples of the result in
// file system block addresses too.
func (fs *Fs) RowBlocks() int {
	unit := fs.Drv.Disk.WriteUnit() * disk.SectorSize
	bsize := int(fs.SB.Bsize)
	if unit%bsize != 0 || unit/bsize > fs.ClusterBlocks() {
		return 0
	}
	return unit / bsize
}

// pickCg returns the next cylinder group after cur with at least the
// average number of free blocks, using the in-core per-group summary
// (the fs_csp array UFS keeps from mount).
func (fs *Fs) pickCg(cur int32) int32 {
	avg := fs.SB.CsNbfree / fs.SB.Ncg
	for i := int32(1); i <= fs.SB.Ncg; i++ {
		cg := (cur + i) % fs.SB.Ncg
		if fs.csum[cg] >= avg {
			return cg
		}
	}
	return (cur + 1) % fs.SB.Ncg
}

// freeFragsTotal returns free space in fragments.
func (fs *Fs) freeFragsTotal() int64 {
	return int64(fs.SB.CsNbfree)*int64(fs.SB.Frag) + int64(fs.SB.CsNffree)
}

// reserveFrags returns the minfree holdback in fragments.
func (fs *Fs) reserveFrags() int64 {
	return int64(fs.SB.Dsize) * int64(fs.SB.Minfree) / 100
}

// AllocBlock allocates one full block, trying pref first, then the rest
// of pref's cylinder group, then the other groups round-robin. It
// returns the fragment address of the block.
func (fs *Fs) AllocBlock(p *sim.Proc, ip *Inode, pref int32) (int32, error) {
	fs.chargeCPU(p, cpu.Alloc, allocInstr)
	fs.AllocCalls++
	if fs.freeFragsTotal()-int64(fs.SB.Frag) < fs.reserveFrags() {
		return 0, ErrNoSpace
	}
	startCg := fs.SB.DtoCg(clampFsbn(fs.SB, pref))
	for i := int32(0); i < fs.SB.Ncg; i++ {
		cgx := (startCg + i) % fs.SB.Ncg
		cgPref := int32(0)
		if i == 0 {
			cgPref = pref
		}
		fsbn, ok, err := fs.alloccgBlock(p, cgx, cgPref)
		if err != nil {
			return 0, err
		}
		if ok {
			if ip != nil {
				ip.D.Blocks += fs.SB.Frag
				ip.MarkDirty()
			}
			return fsbn, nil
		}
	}
	return 0, ErrNoSpace
}

func clampFsbn(sb *Superblock, fsbn int32) int32 {
	if fsbn < 0 {
		return 0
	}
	if fsbn >= sb.Size {
		return sb.Size - 1
	}
	return fsbn
}

// alloccgBlock allocates a block within group cgx, preferring the
// absolute fragment address pref when it falls inside the group.
func (fs *Fs) alloccgBlock(p *sim.Proc, cgx int32, pref int32) (int32, bool, error) {
	cg, err := fs.loadCG(p, cgx)
	if err != nil {
		return 0, false, err
	}
	if cg.Nbfree == 0 {
		return 0, false, nil
	}
	base := fs.SB.CgBase(cgx)
	dmin := fs.SB.MetaFrags()
	frag := fs.SB.Frag
	start := cg.Rotor
	if pref >= base && pref < base+fs.SB.Fpg {
		start = (pref - base) / frag * frag
	}
	if start < dmin {
		start = dmin
	}
	// Forward scan from the preference, then wrap.
	for rel := start; rel+frag <= fs.SB.Fpg; rel += frag {
		if cg.BlockFree(rel, frag) {
			return fs.takeBlock(p, cg, rel), true, nil
		}
	}
	for rel := dmin; rel < start; rel += frag {
		if cg.BlockFree(rel, frag) {
			return fs.takeBlock(p, cg, rel), true, nil
		}
	}
	return 0, false, nil
}

// takeBlock marks the block at group-relative fragment rel allocated.
func (fs *Fs) takeBlock(p *sim.Proc, cg *CG, rel int32) int32 {
	for i := int32(0); i < fs.SB.Frag; i++ {
		clrBit(cg.Blksfree, rel+i)
	}
	cg.Nbfree--
	cg.Rotor = rel + fs.SB.Frag
	if cg.Rotor+fs.SB.Frag > fs.SB.Fpg {
		cg.Rotor = fs.SB.MetaFrags()
	}
	fs.SB.CsNbfree--
	fs.csum[cg.Cgx]--
	fs.storeCG(p, cg)
	return fs.SB.CgBase(cg.Cgx) + rel
}

// AllocFrags allocates nfrags contiguous fragments (a file tail),
// preferring to split already-fragmented blocks before breaking a free
// one. nfrags must be in [1, frag).
func (fs *Fs) AllocFrags(p *sim.Proc, ip *Inode, pref int32, nfrags int32) (int32, error) {
	if nfrags <= 0 || nfrags >= fs.SB.Frag {
		panic("ufs: AllocFrags wants a partial block") // simlint:invariant -- callers pre-round to fragment policy
	}
	fs.chargeCPU(p, cpu.Alloc, allocInstr)
	fs.FragAllocs++
	if fs.freeFragsTotal()-int64(nfrags) < fs.reserveFrags() {
		return 0, ErrNoSpace
	}
	startCg := fs.SB.DtoCg(clampFsbn(fs.SB, pref))
	for i := int32(0); i < fs.SB.Ncg; i++ {
		cgx := (startCg + i) % fs.SB.Ncg
		fsbn, ok, err := fs.alloccgFrags(p, cgx, nfrags)
		if err != nil {
			return 0, err
		}
		if ok {
			if ip != nil {
				ip.D.Blocks += nfrags
				ip.MarkDirty()
			}
			return fsbn, nil
		}
	}
	return 0, ErrNoSpace
}

// alloccgFrags finds nfrags contiguous free fragments within one block
// of group cgx.
func (fs *Fs) alloccgFrags(p *sim.Proc, cgx int32, nfrags int32) (int32, bool, error) {
	cg, err := fs.loadCG(p, cgx)
	if err != nil {
		return 0, false, err
	}
	frag := fs.SB.Frag
	dmin := fs.SB.MetaFrags()
	// Pass 1: a run inside a partially-allocated block.
	if cg.Nffree >= nfrags {
		for rel := dmin; rel+frag <= fs.SB.Fpg; rel += frag {
			if cg.BlockFree(rel, frag) {
				continue // keep whole blocks whole in this pass
			}
			if off, ok := fragRun(cg, rel, frag, nfrags); ok {
				for i := int32(0); i < nfrags; i++ {
					clrBit(cg.Blksfree, off+i)
				}
				cg.Nffree -= nfrags
				fs.SB.CsNffree -= nfrags
				fs.storeCG(p, cg)
				return fs.SB.CgBase(cgx) + off, true, nil
			}
		}
	}
	// Pass 2: split a free block.
	if cg.Nbfree > 0 {
		for rel := dmin; rel+frag <= fs.SB.Fpg; rel += frag {
			if !cg.BlockFree(rel, frag) {
				continue
			}
			for i := int32(0); i < nfrags; i++ {
				clrBit(cg.Blksfree, rel+i)
			}
			cg.Nbfree--
			cg.Nffree += frag - nfrags
			fs.SB.CsNbfree--
			fs.csum[cgx]--
			fs.SB.CsNffree += frag - nfrags
			fs.storeCG(p, cg)
			return fs.SB.CgBase(cgx) + rel, true, nil
		}
	}
	return 0, false, nil
}

// fragRun searches block [rel, rel+frag) for nfrags contiguous free
// fragments, returning the group-relative start.
func fragRun(cg *CG, rel, frag, nfrags int32) (int32, bool) {
	run := int32(0)
	for i := int32(0); i < frag; i++ {
		if bitSet(cg.Blksfree, rel+i) {
			run++
			if run == nfrags {
				return rel + i - nfrags + 1, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// ExtendFrags tries to grow a tail allocation of oldFrags fragments at
// fsbn to newFrags in place. It reports whether it succeeded; on
// failure the caller reallocates.
func (fs *Fs) ExtendFrags(p *sim.Proc, ip *Inode, fsbn int32, oldFrags, newFrags int32) (bool, error) {
	if newFrags <= oldFrags || newFrags > fs.SB.Frag {
		panic("ufs: bad ExtendFrags request") // simlint:invariant -- write path computes in-range extensions
	}
	fs.chargeCPU(p, cpu.Alloc, allocInstr/2)
	need := newFrags - oldFrags
	if fs.freeFragsTotal()-int64(need) < fs.reserveFrags() {
		return false, ErrNoSpace
	}
	cgx := fs.SB.DtoCg(fsbn)
	cg, err := fs.loadCG(p, cgx)
	if err != nil {
		return false, err
	}
	rel := fsbn - fs.SB.CgBase(cgx)
	blockStart := rel / fs.SB.Frag * fs.SB.Frag
	if rel+newFrags > blockStart+fs.SB.Frag {
		return false, nil // would cross a block boundary
	}
	for i := oldFrags; i < newFrags; i++ {
		if !bitSet(cg.Blksfree, rel+i) {
			return false, nil
		}
	}
	wasWhole := cg.BlockFree(blockStart, fs.SB.Frag)
	for i := oldFrags; i < newFrags; i++ {
		clrBit(cg.Blksfree, rel+i)
	}
	if wasWhole {
		// We just broke a whole free block (the tail frags sat at its
		// start... impossible: old frags were allocated). Defensive.
		panic("ufs: ExtendFrags on a free block") // simlint:invariant -- bitmap corruption assertion
	}
	cg.Nffree -= need
	fs.SB.CsNffree -= need
	if err := fs.storeCG(p, cg); err != nil {
		return false, err
	}
	if ip != nil {
		ip.D.Blocks += need
		ip.MarkDirty()
	}
	fs.ReallocFrags++
	return true, nil
}

// FreeFrags releases nfrags fragments starting at fsbn, coalescing them
// into a whole free block when possible.
func (fs *Fs) FreeFrags(p *sim.Proc, fsbn int32, nfrags int32) error {
	if nfrags <= 0 || nfrags > fs.SB.Frag {
		panic("ufs: bad FreeFrags count") // simlint:invariant -- callers free what Alloc returned
	}
	cgx := fs.SB.DtoCg(fsbn)
	cg, err := fs.loadCG(p, cgx)
	if err != nil {
		return err
	}
	rel := fsbn - fs.SB.CgBase(cgx)
	frag := fs.SB.Frag
	for i := int32(0); i < nfrags; i++ {
		if bitSet(cg.Blksfree, rel+i) {
			panic("ufs: freeing free fragment") // simlint:invariant -- bitmap corruption assertion
		}
		setBit(cg.Blksfree, rel+i)
	}
	if nfrags == frag && rel%frag == 0 {
		cg.Nbfree++
		fs.SB.CsNbfree++
		fs.csum[cgx]++
	} else {
		cg.Nffree += nfrags
		fs.SB.CsNffree += nfrags
		// Coalesce: if the enclosing block is now entirely free,
		// promote its fragments to a free block.
		blockStart := rel / frag * frag
		if cg.BlockFree(blockStart, frag) {
			cg.Nffree -= frag
			fs.SB.CsNffree -= frag
			cg.Nbfree++
			fs.SB.CsNbfree++
			fs.csum[cgx]++
		}
	}
	return fs.storeCG(p, cg)
}

// IAlloc allocates an inode, preferring the group of the parent
// directory (spreading directories themselves across groups).
func (fs *Fs) IAlloc(p *sim.Proc, parent *Inode, isDir bool) (int32, error) {
	fs.chargeCPU(p, cpu.Alloc, allocInstr)
	if fs.SB.CsNifree == 0 {
		return 0, ErrNoInodes
	}
	startCg := int32(0)
	if parent != nil && !isDir {
		startCg = fs.SB.InoToCg(parent.Ino)
	} else if isDir {
		// New directories go to the group with most free inodes —
		// approximated by a rotor.
		startCg = fs.cgRotor
		fs.cgRotor = (fs.cgRotor + 1) % fs.SB.Ncg
	}
	for i := int32(0); i < fs.SB.Ncg; i++ {
		cgx := (startCg + i) % fs.SB.Ncg
		cg, err := fs.loadCG(p, cgx)
		if err != nil {
			return 0, err
		}
		if cg.Nifree == 0 {
			continue
		}
		for rel := int32(0); rel < fs.SB.Ipg; rel++ {
			idx := (cg.Irotor + rel) % fs.SB.Ipg
			if !bitSet(cg.Inosused, idx) {
				setBit(cg.Inosused, idx)
				cg.Nifree--
				cg.Irotor = (idx + 1) % fs.SB.Ipg
				if isDir {
					cg.Ndir++
					fs.SB.CsNdir++
				}
				fs.SB.CsNifree--
				fs.storeCG(p, cg)
				return cgx*fs.SB.Ipg + idx, nil
			}
		}
	}
	return 0, ErrNoInodes
}

// IFree releases an inode number.
func (fs *Fs) IFree(p *sim.Proc, ino int32, wasDir bool) error {
	cgx := fs.SB.InoToCg(ino)
	cg, err := fs.loadCG(p, cgx)
	if err != nil {
		return err
	}
	rel := ino % fs.SB.Ipg
	if !bitSet(cg.Inosused, rel) {
		panic("ufs: freeing free inode") // simlint:invariant -- bitmap corruption assertion
	}
	clrBit(cg.Inosused, rel)
	cg.Nifree++
	fs.SB.CsNifree++
	if wasDir {
		cg.Ndir--
		fs.SB.CsNdir--
	}
	return fs.storeCG(p, cg)
}
