package ufs

import (
	"fmt"
	"math"
	"math/bits"

	"ufsclust/internal/disk"
)

// image is a file system taken offline: the platters of d as sb lays
// them out. Mkfs, Mount, SyncImage, Fsck and Repair all reach the
// platters through it, and this file states the format's mechanics
// once; what a checker or a repairer concludes from them is theirs
// (DESIGN.md § "Offline image").
type image struct {
	d  disk.Device
	sb *Superblock
}

// ReadSuperblock loads the primary superblock from d and checks that it
// describes a file system d can hold.
func ReadSuperblock(d disk.Device) (*Superblock, error) {
	buf := make([]byte, SBSize)
	d.ReadImage(sbFragOffset*SBSize/disk.SectorSize, buf)
	sb, err := UnmarshalSuperblock(buf)
	if err != nil {
		return nil, err
	}
	return sb, sb.fits(d)
}

// findAltSuperblock scans the image for a backup superblock copy when
// the primary is gone or lies. Copies live at fragment CgSBlock(cg) of
// every group; the scan accepts the first candidate that decodes, fits
// the device, and sits where its own geometry says a copy belongs.
func findAltSuperblock(d disk.Device) (*Superblock, error) {
	totalFrags := d.Geom().TotalBytes() / SBSize
	buf := make([]byte, SBSize)
	for f := int64(sbFragOffset); f < totalFrags; f++ {
		d.ReadImage(f*SBSize/disk.SectorSize, buf)
		sb, err := UnmarshalSuperblock(buf)
		if err == nil && sb.fits(d) == nil && (f-sbFragOffset)%int64(sb.Fpg) == 0 {
			return sb, nil
		}
	}
	return nil, fmt.Errorf("ufs: no superblock copy found in %d fragments", totalFrags)
}

// fits reports why sb cannot describe a file system on dev, or nil. A
// decoded superblock is input like any other: everything downstream
// sizes maps by Size, indexes the inode table by Ncg*Ipg and reads
// group metadata below MetaFrags, so the fields have to agree with each
// other and with the device before they are believed.
func (sb *Superblock) fits(dev disk.Device) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("ufs: superblock does not fit %s: %s", dev.Name(), fmt.Sprintf(format, args...))
	}
	ipb := int32(sb.InodesPerBlock())
	switch {
	case sb.Fsize != SBSize || sb.Bsize&(sb.Bsize-1) != 0:
		// The primary's fixed byte offset (8 KB) and the copies' fragment
		// addresses agree only at the FFS default fragment size; a block's
		// fragments share a bitmap byte only at a power of two.
		return bad("%d-byte fragments in %d-byte blocks", sb.Fsize, sb.Bsize)
	case sb.Size <= 0 || int64(sb.Ncg)*int64(sb.Fpg) != int64(sb.Size):
		return bad("size %d is not %d groups of %d fragments", sb.Size, sb.Ncg, sb.Fpg)
	case sb.LogFrags < 0 || (int64(sb.Size)+int64(sb.LogFrags))*int64(sb.Fsize) > dev.Geom().TotalBytes():
		return bad("%d+%d fragments on a device of %d bytes", sb.Size, sb.LogFrags, dev.Geom().TotalBytes())
	case sb.LogFrags > 0 && sb.LogStart != sb.Size:
		return bad("log at fragment %d, file system ends at %d", sb.LogStart, sb.Size)
	case sb.Ipg%ipb != 0 || int64(sb.Ncg)*int64(sb.Ipg) > math.MaxInt32:
		return bad("%d groups of %d inodes (%d to a block)", sb.Ncg, sb.Ipg, ipb)
	case sb.MetaFrags() >= sb.Fpg:
		return bad("group metadata (%d fragments) fills the group (%d)", sb.MetaFrags(), sb.Fpg)
	case cgHdrSize+int(sb.Ipg+7)/8+int(sb.Fpg+7)/8 > int(sb.Bsize):
		return bad("bitmaps of %d inodes and %d fragments overflow the group header block", sb.Ipg, sb.Fpg)
	}
	return nil
}

// read returns the n fragments at fsbn, or nil when any of them lies
// outside the file system. Addresses found on an image are untrusted:
// refusing here is what keeps every walker from following a wild
// pointer off the platters.
func (im image) read(fsbn, n int32) []byte {
	if !im.sb.inRange(fsbn, n) {
		return nil
	}
	buf := make([]byte, int(n)*int(im.sb.Fsize))
	im.d.ReadImage(im.sb.FsbToDb(fsbn), buf)
	return buf
}

// write stores data, whole fragments of it, at fsbn.
func (im image) write(fsbn int32, data []byte) {
	if len(data)%int(im.sb.Fsize) != 0 {
		panic("ufs: unaligned image write") // simlint:invariant -- callers pass blocks and fragments the layout sized
	}
	im.d.WriteImage(im.sb.FsbToDb(fsbn), data)
}

// writeSuperblocks stores sb as the primary and as every group's copy.
func (im image) writeSuperblocks() {
	raw := im.sb.Marshal()
	for cgx := int32(0); cgx < im.sb.Ncg; cgx++ {
		im.write(im.sb.CgSBlock(cgx), raw)
	}
}

// dinodes reads the inode table, each group's run of inode blocks in
// one transfer, and returns it indexed by ino (a read per inode made a
// scan of the default image copy 380 MB to look at 6). An all-zero slot
// is left as the zero value it decodes to.
func (im image) dinodes() []Dinode {
	sb := im.sb
	table := make([]Dinode, sb.Ncg*sb.Ipg)
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		raw := im.read(sb.CgIblock(cgx), sb.InodeBlocks()*sb.Frag)
		for i := int32(0); i < sb.Ipg; i++ {
			if slot := raw[i*DinodeSize : (i+1)*DinodeSize]; [DinodeSize]byte(slot) != [DinodeSize]byte{} {
				table[cgx*sb.Ipg+i] = UnmarshalDinode(slot)
			}
		}
	}
	return table
}

// writeDinodes stores the inode table back, a group at a time.
func (im image) writeDinodes(table []Dinode) {
	sb := im.sb
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		raw := make([]byte, sb.InodeBlocks()*sb.Bsize)
		for i := int32(0); i < sb.Ipg; i++ {
			if di := &table[cgx*sb.Ipg+i]; *di != (Dinode{}) {
				di.MarshalInto(raw[i*DinodeSize:])
			}
		}
		im.write(sb.CgIblock(cgx), raw)
	}
}

// visitor is what a walk of one dinode's pointer tree reports to. The
// walk itself holds no opinion about the pointers it finds.
type visitor struct {
	// check hears every nonzero pointer — fsbn, sitting height pointer
	// levels above the data and mapping lbn onward — parents before
	// children, and answers whether the walk goes on below it.
	check func(height int, lbn int64, fsbn int32) bool
	// hole, when not nil, hears the first lbn behind every zero pointer.
	hole func(lbn int64)
	// fix, when not nil, makes a refusal destructive: a pointer check
	// refused, or one whose pointer block cannot be read, is zeroed and
	// fix is handed each pointer block that changed, to store. Only
	// Repair sets it; a walk without it cannot alter dinode or image.
	fix func(fsbn int32, blk []byte)
}

// walk visits di's pointer tree top-down: the direct slots in order,
// then the tree under each IB[k].
func (im image) walk(di *Dinode, v visitor) {
	for lbn := range di.DB {
		im.walkPtr(&di.DB[lbn], 0, int64(lbn), &v)
	}
	for k := range di.IB {
		im.walkPtr(&di.IB[k], k+1, im.sb.indirBase(k), &v)
	}
}

// walkPtr is walk below one pointer; it reports whether it zeroed it.
func (im image) walkPtr(ptr *int32, height int, lbn int64, v *visitor) bool {
	if *ptr == 0 {
		if v.hole != nil {
			v.hole(lbn)
		}
		return false
	}
	var blk []byte
	keep := v.check(height, lbn, *ptr)
	if keep && height > 0 {
		blk = im.read(*ptr, im.sb.Frag)
		keep = blk != nil
	}
	if !keep {
		if v.fix != nil {
			*ptr = 0
		}
		return v.fix != nil
	}
	if height == 0 {
		return false
	}
	changed, span := false, im.sb.indirSpan(height)
	for i := int64(0); i < im.sb.NindirPerBlock(); i++ {
		if a := getIndir(blk, i); im.walkPtr(&a, height-1, lbn+i*span, v) {
			putIndir(blk, i, a)
			changed = true
		}
	}
	if changed {
		v.fix(*ptr, blk)
	}
	return false
}

// dataBlocks returns the addresses the image holds for di's first n
// logical blocks (none for a negative n): 0 for a hole, or when a
// pointer block on the way is missing or unreadable.
func (im image) dataBlocks(di *Dinode, n int64) []int32 {
	addrs := make([]int32, max(n, 0))
	im.walk(di, visitor{check: func(height int, lbn int64, fsbn int32) bool {
		if height == 0 && lbn < n {
			addrs[lbn] = fsbn
		}
		return lbn < n
	}})
	return addrs
}

// countFree recounts the group's free space from its fragment bitmap:
// wholly free blocks, and free fragments in the blocks that are not.
// The block size is a power of two (fits), so a block's fragments
// share one bitmap byte.
func (cg *CG) countFree(sb *Superblock) (nbfree, nffree int32) {
	mask := byte(1)<<sb.Frag - 1
	for f := int32(0); f+sb.Frag <= sb.Fpg; f += sb.Frag {
		if free := int32(bits.OnesCount8(cg.Blksfree[f>>3] >> (f & 7) & mask)); free == sb.Frag {
			nbfree++
		} else {
			nffree += free
		}
	}
	return nbfree, nffree
}

// buildCG builds group cgx — bitmaps, counts — from what is in use and
// adds its counts to sb's summary. owner[f] != 0 says the group's
// fragment f is in use and inodes[i] is the group's inode i; both may
// stop short of the group, and what they do not reach is free.
// Metadata fragments and the reserved inodes are in use regardless.
func buildCG(sb *Superblock, cgx int32, owner []int32, inodes []Dinode) *CG {
	cg := NewCG(sb, cgx)
	cg.Ndblk = sb.Fpg - sb.MetaFrags()
	for f := sb.MetaFrags(); f < sb.Fpg; f++ {
		if int(f) >= len(owner) || owner[f] == 0 {
			setBit(cg.Blksfree, f)
		}
	}
	cg.Nbfree, cg.Nffree = cg.countFree(sb)
	cg.Nifree = sb.Ipg
	for i := range inodes {
		if inodes[i].Allocated() || cgx*sb.Ipg+int32(i) < RootIno {
			setBit(cg.Inosused, int32(i))
			cg.Nifree--
			if inodes[i].IsDir() {
				cg.Ndir++
			}
		}
	}
	sb.CsNdir += cg.Ndir
	sb.CsNbfree += cg.Nbfree
	sb.CsNifree += cg.Nifree
	sb.CsNffree += cg.Nffree
	return cg
}

// rootDir returns the dinode and the one directory block of an empty
// root directory whose block is at fsbn.
func rootDir(sb *Superblock, fsbn int32) (Dinode, []byte) {
	blk := make([]byte, sb.Bsize)
	n := putDirent(blk, RootIno, ".")
	putDirentLast(blk[n:], RootIno, "..", int(sb.Bsize)-n)
	di := Dinode{Mode: ModeDir | 0o755, Nlink: 2, Size: int64(sb.Bsize), Blocks: sb.Frag}
	di.DB[0] = fsbn
	return di, blk
}
