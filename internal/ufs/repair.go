package ufs

import (
	"fmt"

	"ufsclust/internal/disk"
)

// This file is the offline crash-recovery half of fsck: where Fsck only
// reports inconsistencies, Repair rewrites the image until none remain.
// It exists for the fault-injection harness (internal/fault,
// internal/faultlab): a power cut freezes the disk with only the
// acknowledged-durable sectors applied, and Repair must bring that
// torn image back to a mountable, Fsck-clean state without losing any
// byte the machine had acknowledged as durable.
//
// The durability contract it leans on (see core.File.Fsync and
// Fs.SyncInode): data pages, indirect blocks, and the inode are written
// before an fsync returns, in that order, and directory entries are
// written synchronously at create time. Bitmaps, cylinder-group headers
// and superblock totals are NOT kept durable — Repair rebuilds all of
// them from the inodes, which are the single source of truth.

// RepairReport records what Repair changed, plus the post-repair check.
type RepairReport struct {
	Fixes []string    // one line per change applied, deterministic order
	Check *FsckReport // Fsck of the repaired image
}

// Clean reports whether the repaired image passed its final check.
func (r *RepairReport) Clean() bool { return r.Check != nil && r.Check.Clean() }

func (r *RepairReport) fixf(format string, args ...any) {
	r.Fixes = append(r.Fixes, fmt.Sprintf(format, args...))
}

// repairer carries the working state of one Repair run.
type repairer struct {
	image
	r      *RepairReport
	dinode []Dinode // indexed by ino; cleared entries are the zero value
	owner  []int32  // fragment -> claiming ino; 0 free, -1 metadata
}

const metaOwner = int32(-1)

// Repair fixes the file system on d's image in place and returns what
// it did. It fails only when no superblock can be recovered; every
// other inconsistency is repaired, destructively if necessary (an
// unreachable or structurally hopeless inode is cleared, a duplicate
// block claim is resolved in favor of the lower-numbered inode).
func Repair(d disk.Device) (*RepairReport, error) {
	rep := &RepairReport{}
	sb, err := ReadSuperblock(d)
	if err != nil {
		sb, err = findAltSuperblock(d)
		if err != nil {
			return nil, fmt.Errorf("ufs: repair: no usable superblock: %w", err)
		}
		rep.fixf("superblock: primary unreadable, restored from a backup copy")
	}
	rp := &repairer{image: image{d, sb}, r: rep}

	rp.loadInodes()
	rp.sanitizeInodes()
	rp.fixPointers()
	rp.ensureRoot()
	rp.walkDirectories()
	rp.rebuildMaps()

	check, err := Fsck(d)
	if err != nil {
		return rep, err
	}
	rep.Check = check
	return rep, nil
}

// findAltSuperblock scans the image for a backup superblock copy when
// the primary is gone. Copies live at fragment CgSBlock(cg) of every
// group; the scan accepts the first candidate that decodes, fits the
// disk, and sits where its own geometry says a copy belongs.
func findAltSuperblock(d disk.Device) (*Superblock, error) {
	totalFrags := d.Geom().TotalBytes() / SBSize
	buf := make([]byte, SBSize)
	for f := int64(0); f < totalFrags; f++ {
		d.ReadImage(f*SBSize/disk.SectorSize, buf)
		sb, err := UnmarshalSuperblock(buf)
		if err != nil {
			continue
		}
		if int64(sb.Size)*int64(sb.Fsize) > d.Geom().TotalBytes() {
			continue
		}
		if sb.Fpg <= 0 || f < sbFragOffset || (f-sbFragOffset)%int64(sb.Fpg) != 0 {
			continue
		}
		return sb, nil
	}
	return nil, fmt.Errorf("ufs: no superblock copy found in %d fragments", totalFrags)
}

func (rp *repairer) writeBlk(fsbn int32, data []byte) {
	rp.d.WriteImage(rp.sb.FsbToDb(fsbn), data)
}

// loadInodes reads every dinode into memory; all fixes operate on this
// copy and rebuildMaps writes every inode block back.
func (rp *repairer) loadInodes() {
	sb := rp.sb
	rp.dinode = make([]Dinode, sb.Ncg*sb.Ipg)
	for ino := int32(0); ino < sb.Ncg*sb.Ipg; ino++ {
		blk := rp.readBlk(sb.InoToFsba(ino))
		rp.dinode[ino] = UnmarshalDinode(blk[sb.InoBlockOff(ino) : sb.InoBlockOff(ino)+DinodeSize])
	}
}

// clear wipes an inode (and logs why).
func (rp *repairer) clear(ino int32, why string) {
	rp.dinode[ino] = Dinode{}
	rp.r.fixf("ino %d: cleared (%s)", ino, why)
}

// sanitizeInodes drops inodes whose fixed fields are beyond salvage and
// normalizes the ones worth keeping.
func (rp *repairer) sanitizeInodes() {
	sb := rp.sb
	maxSize := sb.MaxFileBlocks() * int64(sb.Bsize)
	for ino := range rp.dinode {
		di := &rp.dinode[ino]
		if !di.Allocated() {
			continue
		}
		if int32(ino) < RootIno {
			rp.clear(int32(ino), "reserved inode")
			continue
		}
		switch di.Mode & ModeFmt {
		case ModeReg, ModeDir, ModeLink:
		default:
			rp.clear(int32(ino), fmt.Sprintf("unknown mode %#x", di.Mode))
			continue
		}
		if di.Size < 0 || di.Size > maxSize {
			rp.clear(int32(ino), fmt.Sprintf("impossible size %d", di.Size))
			continue
		}
		if di.Mode&ModeFmt == ModeLink && di.Blocks != 0 {
			rp.r.fixf("ino %d: symlink claimed %d fragments, zeroed", ino, di.Blocks)
			di.Blocks = 0
		}
		if di.IsDir() && di.Size%int64(sb.Bsize) != 0 {
			fixed := di.Size / int64(sb.Bsize) * int64(sb.Bsize)
			rp.r.fixf("ino %d: dir size %d not a block multiple, truncated to %d", ino, di.Size, fixed)
			di.Size = fixed
		}
		if di.IsDir() && di.Size == 0 {
			rp.clear(int32(ino), "directory with no blocks")
		}
	}
}

// rangeOK reports whether [fsbn, fsbn+n) lies entirely in some group's
// data area.
func (rp *repairer) rangeOK(fsbn, n int32) bool {
	if fsbn == 0 || !rp.sb.inRange(fsbn, n) {
		return false
	}
	for i := fsbn; i < fsbn+n; i++ {
		if i%rp.sb.Fpg < rp.sb.MetaFrags() {
			return false
		}
	}
	return true
}

// claim records ino as the owner of [fsbn, fsbn+n); it fails without
// side effects if any fragment is out of range, metadata, or already
// owned.
func (rp *repairer) claim(ino, fsbn, n int32) bool {
	if !rp.rangeOK(fsbn, n) {
		return false
	}
	for i := fsbn; i < fsbn+n; i++ {
		if rp.owner[i] != 0 {
			return false
		}
	}
	for i := fsbn; i < fsbn+n; i++ {
		rp.owner[i] = ino
	}
	return true
}

// newOwnerMap returns a fragment owner map with metadata pre-marked.
func (rp *repairer) newOwnerMap() []int32 {
	sb := rp.sb
	owner := make([]int32, sb.Size)
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		base := sb.CgBase(cgx)
		for i := int32(0); i < sb.MetaFrags(); i++ {
			owner[base+i] = metaOwner
		}
	}
	return owner
}

// sweep walks di's pointer tree top-down, parents before children.
// check is asked about every nonzero pointer — fsbn, sitting height
// pointer levels above the data and mapping lbn onward — and answers
// whether it stays; a refused pointer is zeroed with everything under
// it unvisited, and the pointer block that held it is rewritten. hole,
// when not nil, hears the first lbn behind every zero pointer.
func (rp *repairer) sweep(di *Dinode, check func(height int, lbn int64, fsbn int32) bool, hole func(lbn int64)) {
	for lbn := range di.DB {
		rp.sweepPtr(&di.DB[lbn], 0, int64(lbn), check, hole)
	}
	for k := range di.IB {
		rp.sweepPtr(&di.IB[k], k+1, rp.sb.indirBase(k), check, hole)
	}
}

// sweepPtr is sweep below one pointer; it reports whether it changed it.
func (rp *repairer) sweepPtr(ptr *int32, height int, lbn int64, check func(int, int64, int32) bool, hole func(int64)) bool {
	if *ptr == 0 {
		if hole != nil {
			hole(lbn)
		}
		return false
	}
	if !check(height, lbn, *ptr) {
		*ptr = 0
		return true
	}
	if height == 0 {
		return false
	}
	blk := rp.readBlk(*ptr)
	if blk == nil { // check let an unreadable address through
		*ptr = 0
		return true
	}
	changed, span := false, rp.sb.indirSpan(height)
	for i := int64(0); i < rp.sb.NindirPerBlock(); i++ {
		if a := getIndir(blk, i); rp.sweepPtr(&a, height-1, lbn+i*span, check, hole) {
			putIndir(blk, i, a)
			changed = true
		}
	}
	if changed {
		rp.writeBlk(*ptr, blk)
	}
	return false
}

// fixPointers sweeps every surviving inode's block pointers in
// ascending inode order, zeroing the ones that are out of range, point
// into metadata, duplicate an earlier claim, or lie beyond the file
// size. Directories additionally may not contain holes: a directory is
// truncated at its first missing block, and cleared outright if that
// block is block 0.
func (rp *repairer) fixPointers() {
	sb := rp.sb
	rp.owner = rp.newOwnerMap()
	for inoInt := range rp.dinode {
		ino := int32(inoInt)
		di := &rp.dinode[ino]
		if !di.Allocated() || di.Mode&ModeFmt == ModeLink {
			continue
		}
		nblocks := (di.Size + int64(sb.Bsize) - 1) / int64(sb.Bsize)
		dirHole := int64(-1)
		hole := func(lbn int64) {
			if di.IsDir() && lbn < nblocks && (dirHole < 0 || lbn < dirHole) {
				dirHole = lbn
			}
		}
		rp.sweep(di, func(height int, lbn int64, fsbn int32) bool {
			what, frags := "indirect", sb.Frag
			if height == 0 {
				what, frags = "block", sb.BlkFrags(di.Size, lbn)
			}
			if lbn >= nblocks {
				rp.r.fixf("ino %d: zeroed %s pointer at lbn %d beyond size %d", ino, what, lbn, di.Size)
				return false
			}
			if !rp.claim(ino, fsbn, frags) {
				rp.r.fixf("ino %d: zeroed bad or duplicate %s pointer at lbn %d (fsbn %d)", ino, what, lbn, fsbn)
				hole(lbn)
				return false
			}
			return true
		}, hole)

		if dirHole == 0 {
			rp.clear(ino, "directory lost its first block")
		} else if dirHole > 0 {
			rp.r.fixf("ino %d: directory has a hole at block %d, truncated from %d to %d bytes",
				ino, dirHole, di.Size, dirHole*int64(sb.Bsize))
			di.Size = dirHole * int64(sb.Bsize)
			// Pointers past the hole are now beyond the size; zero them
			// (the final claim sweep in rebuildMaps releases what they
			// claimed above).
			rp.sweep(di, func(_ int, lbn int64, _ int32) bool { return lbn < dirHole }, nil)
		}
	}
}

// ensureRoot guarantees a usable root directory, rebuilding an empty
// one from a free block when the original is gone. Everything that hung
// off a lost root becomes unreachable and is cleared by the walk.
func (rp *repairer) ensureRoot() {
	sb := rp.sb
	di := &rp.dinode[RootIno]
	if di.IsDir() && di.DB[0] != 0 {
		return
	}
	fsbn := rp.findFreeBlock()
	if fsbn == 0 {
		// A full disk with no root is unrecoverable space-wise; leave
		// the problem for the final Fsck to report.
		rp.r.fixf("root inode unusable and no free block to rebuild it")
		return
	}
	rp.owner[fsbn] = RootIno
	for i := int32(1); i < sb.Frag; i++ {
		rp.owner[fsbn+i] = RootIno
	}
	blk := make([]byte, sb.Bsize)
	n := putDirent(blk, RootIno, ".")
	putDirentLast(blk[n:], RootIno, "..", int(sb.Bsize)-n)
	rp.writeBlk(fsbn, blk)
	*di = Dinode{Mode: ModeDir | 0o755, Nlink: 2, Size: int64(sb.Bsize), Blocks: sb.Frag}
	di.DB[0] = fsbn
	rp.r.fixf("root directory rebuilt empty at fsbn %d", fsbn)
}

// findFreeBlock returns the first group-relative block-aligned run of
// Frag unclaimed data fragments, or 0. (Block alignment is relative to
// the group base, matching the allocator and fsck.)
func (rp *repairer) findFreeBlock() int32 {
	sb := rp.sb
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		base := sb.CgBase(cgx)
		for f := sb.MetaFrags(); f+sb.Frag <= sb.Fpg; f += sb.Frag {
			free := true
			for i := int32(0); i < sb.Frag; i++ {
				if rp.owner[base+f+i] != 0 {
					free = false
					break
				}
			}
			if free {
				return base + f
			}
		}
	}
	return 0
}

// buildDirBlock packs entries into one directory block, the last record
// absorbing the slack; with no entries the block is one free record.
func (rp *repairer) buildDirBlock(ents []Dirent) []byte {
	bsize := int(rp.sb.Bsize)
	blk := make([]byte, bsize)
	off := 0
	for i, e := range ents {
		if off+direntSize(e.Name) > bsize {
			rp.r.fixf("dir block overflow: dropped entry %q", e.Name)
			continue
		}
		if i == len(ents)-1 {
			putDirentLast(blk[off:], e.Ino, e.Name, bsize-off)
			off = bsize
		} else {
			off += putDirent(blk[off:], e.Ino, e.Name)
		}
	}
	if off < bsize {
		// Terminate with one free record spanning the remainder.
		rem := bsize - off
		blk[off+4] = byte(rem)
		blk[off+5] = byte(rem >> 8)
	}
	return blk
}

// walkDirectories checks the tree from the root: every entry must point
// at a live inode, "." and ".." at self and parent, and each directory
// may be referenced once. Broken entries are dropped (the block is
// rewritten), link counts are recomputed, and everything the walk never
// reaches is cleared.
func (rp *repairer) walkDirectories() {
	sb := rp.sb
	if !rp.dinode[RootIno].IsDir() {
		return // ensureRoot already logged the hopeless case
	}
	links := make([]int16, len(rp.dinode))
	visited := make([]bool, len(rp.dinode))
	// claimed marks a directory already referenced by a kept entry; a
	// second name for it (hard-linked directory) is dropped at sight,
	// before the child is ever popped from the walk stack.
	claimed := make([]bool, len(rp.dinode))
	claimed[RootIno] = true

	type frame struct{ ino, parent int32 }
	stack := []frame{{RootIno, RootIno}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[fr.ino] {
			continue
		}
		visited[fr.ino] = true
		di := &rp.dinode[fr.ino]
		nblocks := di.Size / int64(sb.Bsize)
		var children []frame
		for lbn := int64(0); lbn < nblocks; lbn++ {
			fsbn := rp.blockAt(di, lbn)
			if fsbn == 0 {
				continue // fixPointers already truncated holes; defensive
			}
			raw := rp.readBlk(fsbn)
			ents, err := parseDirents(raw)
			rebuilt := false
			if err != nil {
				rp.r.fixf("ino %d: directory block %d unparseable (%v), rebuilt", fr.ino, lbn, err)
				ents, rebuilt = nil, true
			}
			var keep []Dirent
			sawDot, sawDotDot := false, false
			for _, e := range ents {
				switch {
				case lbn == 0 && e.Name == ".":
					if e.Ino != fr.ino {
						rp.r.fixf("ino %d: \".\" pointed to %d, fixed", fr.ino, e.Ino)
						e.Ino = fr.ino
						rebuilt = true
					}
					sawDot = true
				case lbn == 0 && e.Name == "..":
					if e.Ino != fr.parent {
						rp.r.fixf("ino %d: \"..\" pointed to %d, fixed to %d", fr.ino, e.Ino, fr.parent)
						e.Ino = fr.parent
						rebuilt = true
					}
					sawDotDot = true
				default:
					if e.Ino < RootIno || e.Ino >= int32(len(rp.dinode)) || !rp.dinode[e.Ino].Allocated() {
						rp.r.fixf("ino %d: dropped entry %q -> dead ino %d", fr.ino, e.Name, e.Ino)
						rebuilt = true
						continue
					}
					if rp.dinode[e.Ino].IsDir() {
						if claimed[e.Ino] {
							rp.r.fixf("ino %d: dropped duplicate directory link %q -> %d", fr.ino, e.Name, e.Ino)
							rebuilt = true
							continue
						}
						claimed[e.Ino] = true
						children = append(children, frame{e.Ino, fr.ino})
					}
				}
				keep = append(keep, e)
			}
			if lbn == 0 && (!sawDot || !sawDotDot) {
				rp.r.fixf("ino %d: restored missing \".\"/\"..\"", fr.ino)
				var rest []Dirent
				for _, e := range keep {
					if e.Name != "." && e.Name != ".." {
						rest = append(rest, e)
					}
				}
				keep = append([]Dirent{{Ino: fr.ino, Name: "."}, {Ino: fr.parent, Name: ".."}}, rest...)
				rebuilt = true
				sawDot, sawDotDot = true, true
			}
			if rebuilt {
				rp.writeBlk(fsbn, rp.buildDirBlock(keep))
			}
			for _, e := range keep {
				switch e.Name {
				case ".":
					links[fr.ino]++
				case "..":
					links[fr.parent]++
				default:
					links[e.Ino]++
				}
			}
		}
		// Push children in reverse so the walk visits them in directory
		// order — keeps the fix log deterministic.
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}

	for inoInt := range rp.dinode {
		ino := int32(inoInt)
		di := &rp.dinode[ino]
		if !di.Allocated() || ino < RootIno {
			continue
		}
		if di.IsDir() && !visited[ino] {
			rp.clear(ino, "unreachable directory")
			continue
		}
		if !di.IsDir() && links[ino] == 0 {
			rp.clear(ino, "unreferenced inode")
			continue
		}
		if di.Nlink != links[ino] {
			rp.r.fixf("ino %d: link count %d, counted %d", ino, di.Nlink, links[ino])
			di.Nlink = links[ino]
		}
	}
}

// rebuildMaps re-derives everything below the inodes: a fresh claim
// sweep fixes each survivor's di_blocks, then bitmaps, cylinder-group
// headers and superblock totals are rebuilt from scratch and every
// piece of metadata — inode blocks included — is written back.
func (rp *repairer) rebuildMaps() {
	sb := rp.sb
	rp.owner = rp.newOwnerMap()
	for inoInt := range rp.dinode {
		ino := int32(inoInt)
		di := &rp.dinode[ino]
		if !di.Allocated() || di.Mode&ModeFmt == ModeLink {
			continue
		}
		var frags int32
		rp.sweep(di, func(height int, lbn int64, fsbn int32) bool {
			n := sb.Frag
			if height == 0 {
				n = sb.BlkFrags(di.Size, lbn)
			}
			if !rp.claim(ino, fsbn, n) {
				return false
			}
			frags += n
			return true
		}, nil)
		if di.Blocks != frags {
			rp.r.fixf("ino %d: di_blocks %d, holds %d fragments", ino, di.Blocks, frags)
			di.Blocks = frags
		}
	}

	// Write every inode block back.
	ipb := int32(sb.InodesPerBlock())
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		for blk := int32(0); blk < sb.InodeBlocks(); blk++ {
			buf := make([]byte, sb.Bsize)
			for k := int32(0); k < ipb; k++ {
				ino := cgx*sb.Ipg + blk*ipb + k
				if ino < int32(len(rp.dinode)) {
					rp.dinode[ino].MarshalInto(buf[k*DinodeSize:])
				}
			}
			rp.writeBlk(sb.CgIblock(cgx)+blk*sb.Frag, buf)
		}
	}

	// Rebuild every cylinder group from the claims and inode table.
	sb.CsNdir, sb.CsNbfree, sb.CsNifree, sb.CsNffree = 0, 0, 0, 0
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		cg := NewCG(sb, cgx)
		cg.Ndblk = sb.Fpg - sb.MetaFrags()
		base := sb.CgBase(cgx)
		for f := int32(sb.MetaFrags()); f < sb.Fpg; f++ {
			if rp.owner[base+f] == 0 {
				setBit(cg.Blksfree, f)
			}
		}
		for f := int32(0); f+sb.Frag <= sb.Fpg; f += sb.Frag {
			if cg.BlockFree(f, sb.Frag) {
				cg.Nbfree++
			} else {
				for i := int32(0); i < sb.Frag; i++ {
					if cg.FragFree(f + i) {
						cg.Nffree++
					}
				}
			}
		}
		for i := int32(0); i < sb.Ipg; i++ {
			ino := cgx*sb.Ipg + i
			di := &rp.dinode[ino]
			if di.Allocated() || ino < RootIno {
				setBit(cg.Inosused, i)
				if di.IsDir() {
					cg.Ndir++
				}
			} else {
				cg.Nifree++
			}
		}
		sb.CsNdir += cg.Ndir
		sb.CsNbfree += cg.Nbfree
		sb.CsNifree += cg.Nifree
		sb.CsNffree += cg.Nffree
		rp.writeBlk(sb.CgHeader(cgx), cg.Marshal(sb))
	}

	// Fresh superblock everywhere, marked clean.
	sb.Clean = 1
	sb.Fmod = 0
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		rp.d.WriteImage(sb.FsbToDb(sb.CgSBlock(cgx)), sb.Marshal())
	}
}
