package ufs

import (
	"fmt"

	"ufsclust/internal/detsort"
	"ufsclust/internal/disk"
)

// FsckReport is the result of an offline consistency check.
type FsckReport struct {
	Problems  []string
	Files     int
	Dirs      int
	UsedFrags int64
	FreeFrags int64
}

// Clean reports whether no problems were found.
func (r *FsckReport) Clean() bool { return len(r.Problems) == 0 }

func (r *FsckReport) addf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// image is an offline file system image as Fsck and Repair read it.
// Block addresses found on the image are untrusted: readBlk refuses
// one outside the file system instead of handing it to the device, so
// no walker can follow a wild pointer off the platters.
type image struct {
	d  disk.Device
	sb *Superblock
}

// readBlk returns the block at fragment address fsbn, or nil when any
// of it lies outside the file system.
func (im image) readBlk(fsbn int32) []byte {
	if !im.sb.inRange(fsbn, im.sb.Frag) {
		return nil
	}
	buf := make([]byte, im.sb.Bsize)
	im.d.ReadImage(im.sb.FsbToDb(fsbn), buf)
	return buf
}

// blockAt returns the address the image holds for logical block lbn of
// di: 0 for a hole, or when a pointer block on the way is missing or
// unreadable.
func (im image) blockAt(di *Dinode, lbn int64) int32 {
	pp, err := im.sb.ptrPath(lbn)
	if err != nil {
		return 0
	}
	if pp.depth == 0 {
		return di.DB[pp.root]
	}
	addr := di.IB[pp.root]
	for lvl := 0; lvl < pp.depth && addr != 0; lvl++ {
		blk := im.readBlk(addr)
		if blk == nil {
			return 0
		}
		addr = getIndir(blk, pp.idx[lvl])
	}
	return addr
}

// Fsck checks the file system on d's image: superblock sanity, inode
// block accounting, duplicate and out-of-range block references,
// directory structure and link counts, bitmap consistency, and summary
// totals. It is how the repository demonstrates the paper's headline
// constraint — the clustered engine leaves images byte-compatible with
// the legacy one.
func Fsck(d disk.Device) (*FsckReport, error) {
	r := &FsckReport{}
	sb, err := ReadSuperblock(d)
	if err != nil {
		return nil, err
	}

	// Shadow fragment map: 0 free, 1 metadata, 2 data.
	shadow := make([]byte, sb.Size)
	markMeta := func(fsbn, n int32, what string) {
		for i := fsbn; i < fsbn+n; i++ {
			if i < 0 || i >= sb.Size {
				r.addf("%s: fragment %d out of range", what, i)
				return
			}
			shadow[i] = 1
		}
	}
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		markMeta(sb.CgBase(cgx), sb.MetaFrags(), "group metadata")
	}

	im := image{d, sb}
	readBlk := im.readBlk

	// claim marks a data fragment used by an inode.
	claim := func(ino int32, fsbn, n int32) {
		if !sb.inRange(fsbn, n) {
			r.addf("ino %d: fragments %d+%d out of range", ino, fsbn, n)
			return
		}
		for i := fsbn; i < fsbn+n; i++ {
			switch shadow[i] {
			case 0:
				shadow[i] = 2
			case 1:
				r.addf("ino %d: fragment %d overlaps metadata", ino, i)
			default:
				r.addf("ino %d: fragment %d multiply claimed", ino, i)
			}
		}
	}

	// Pass 1: inodes and block pointers.
	nindir := sb.NindirPerBlock()
	type inodeInfo struct {
		di    Dinode
		links int16 // directory references found in pass 2
	}
	inodes := make(map[int32]*inodeInfo)
	for ino := int32(0); ino < sb.Ncg*sb.Ipg; ino++ {
		blk := readBlk(sb.InoToFsba(ino))
		di := UnmarshalDinode(blk[sb.InoBlockOff(ino) : sb.InoBlockOff(ino)+DinodeSize])
		if !di.Allocated() {
			continue
		}
		if ino < RootIno {
			r.addf("reserved inode %d is allocated", ino)
			continue
		}
		switch di.Mode & ModeFmt {
		case ModeReg:
			r.Files++
		case ModeDir:
			r.Dirs++
		case ModeLink:
		default:
			r.addf("ino %d: unknown mode %#x", ino, di.Mode)
			continue
		}
		info := &inodeInfo{di: di}
		inodes[ino] = info

		if di.Mode&ModeFmt == ModeLink {
			// Fast symlink: the pointer area holds the target string,
			// not block addresses; it owns no fragments.
			if di.Blocks != 0 {
				r.addf("symlink ino %d claims %d fragments", ino, di.Blocks)
			}
			continue
		}

		nblocks := (di.Size + int64(sb.Bsize) - 1) / int64(sb.Bsize)
		var frags int32
		// walk claims the block at fsbn — height pointer levels above
		// the data, mapping lbn onward — and then everything under it.
		// A pointer block at an address claim reported out of range is
		// not read: readBlk refuses it.
		var walk func(fsbn int32, height int, lbn int64)
		walk = func(fsbn int32, height int, lbn int64) {
			if fsbn == 0 {
				return
			}
			if height == 0 {
				if lbn >= nblocks {
					r.addf("ino %d: block %d beyond size %d", ino, lbn, di.Size)
				}
				n := sb.BlkFrags(di.Size, lbn)
				claim(ino, fsbn, n)
				frags += n
				return
			}
			claim(ino, fsbn, sb.Frag)
			frags += sb.Frag
			if blk := readBlk(fsbn); blk != nil {
				span := sb.indirSpan(height)
				for i := int64(0); i < nindir; i++ {
					walk(getIndir(blk, i), height-1, lbn+i*span)
				}
			}
		}
		for lbn, fsbn := range di.DB {
			walk(fsbn, 0, int64(lbn))
		}
		for k, fsbn := range di.IB {
			walk(fsbn, k+1, sb.indirBase(k))
		}
		if frags != di.Blocks {
			r.addf("ino %d: holds %d fragments but di_blocks says %d", ino, frags, di.Blocks)
		}
	}

	// Pass 2: directory structure from the root.
	if ri, ok := inodes[RootIno]; !ok || !ri.di.IsDir() {
		r.addf("root inode missing or not a directory")
		return r, nil
	}
	var walk func(ino int32, parent int32, depth int)
	visited := make(map[int32]bool)
	walk = func(ino, parent int32, depth int) {
		if depth > 64 {
			r.addf("directory nesting too deep at ino %d", ino)
			return
		}
		if visited[ino] {
			r.addf("directory ino %d reached twice", ino)
			return
		}
		visited[ino] = true
		info := inodes[ino]
		di := info.di
		if di.Size%int64(sb.Bsize) != 0 {
			r.addf("dir ino %d: size %d not a block multiple", ino, di.Size)
		}
		nblocks := di.Size / int64(sb.Bsize)
		// This repository keeps directories out of the double-indirect
		// range; a size beyond that is corruption, reported once rather
		// than as one hole per block the size claims.
		if reach := sb.indirBase(1); nblocks > reach {
			r.addf("dir ino %d: impossible size %d", ino, di.Size)
			nblocks = reach
		}
		sawDot, sawDotDot := false, false
		for lbn := int64(0); lbn < nblocks; lbn++ {
			fsbn := im.blockAt(&di, lbn)
			if fsbn == 0 {
				r.addf("dir ino %d: hole at block %d", ino, lbn)
				continue
			}
			blk := readBlk(fsbn)
			if blk == nil {
				continue // pass 1 reported the address
			}
			ents, err := parseDirents(blk)
			if err != nil {
				r.addf("dir ino %d block %d: %v", ino, lbn, err)
				continue
			}
			for _, e := range ents {
				if e.Ino == 0 {
					continue
				}
				ti, ok := inodes[e.Ino]
				if !ok {
					r.addf("dir ino %d: entry %q points to unallocated ino %d", ino, e.Name, e.Ino)
					continue
				}
				switch e.Name {
				case ".":
					sawDot = true
					if e.Ino != ino {
						r.addf("dir ino %d: \".\" points to %d", ino, e.Ino)
					}
					ti.links++
				case "..":
					sawDotDot = true
					if e.Ino != parent {
						r.addf("dir ino %d: \"..\" points to %d, want %d", ino, e.Ino, parent)
					}
					ti.links++
				default:
					ti.links++
					if ti.di.IsDir() {
						walk(e.Ino, ino, depth+1)
					}
				}
			}
		}
		if !sawDot || !sawDotDot {
			r.addf("dir ino %d: missing \".\" or \"..\"", ino)
		}
	}
	walk(RootIno, RootIno, 0)

	// Walk inodes in ascending order so the report is byte-stable: a
	// map-order walk here would shuffle problem lines between runs.
	for _, ino := range detsort.Keys(inodes) {
		info := inodes[ino]
		if info.links != info.di.Nlink {
			r.addf("ino %d: link count %d, found %d references", ino, info.di.Nlink, info.links)
		}
		if info.di.IsDir() && !visited[ino] {
			r.addf("orphan directory ino %d", ino)
		}
	}

	// Pass 3: bitmaps and summaries.
	var nbfree, nffree, nifree, ndir int32
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		raw := readBlk(sb.CgHeader(cgx))
		cg, err := UnmarshalCG(sb, raw)
		if err != nil {
			r.addf("cg %d: %v", cgx, err)
			continue
		}
		base := sb.CgBase(cgx)
		var cgNb, cgNf, cgNi int32
		for f := int32(0); f < sb.Fpg; f++ {
			free := cg.FragFree(f)
			used := shadow[base+f] != 0
			if free && used {
				r.addf("cg %d: fragment %d free in bitmap but in use", cgx, base+f)
			}
			if !free && !used {
				r.addf("cg %d: fragment %d allocated in bitmap but unreferenced", cgx, base+f)
			}
			if used {
				r.UsedFrags++
			} else {
				r.FreeFrags++
			}
		}
		for f := int32(0); f+sb.Frag <= sb.Fpg; f += sb.Frag {
			if cg.BlockFree(f, sb.Frag) {
				cgNb++
			} else {
				for i := int32(0); i < sb.Frag; i++ {
					if cg.FragFree(f + i) {
						cgNf++
					}
				}
			}
		}
		for i := int32(0); i < sb.Ipg; i++ {
			ino := cgx*sb.Ipg + i
			used := cg.InodeUsed(i)
			_, allocated := inodes[ino]
			if ino < RootIno {
				allocated = true // reserved inodes are marked used
			}
			if used && !allocated {
				r.addf("cg %d: inode %d marked used but unallocated", cgx, ino)
			}
			if !used && allocated {
				r.addf("cg %d: inode %d allocated but marked free", cgx, ino)
			}
			if !used {
				cgNi++
			}
		}
		if cgNb != cg.Nbfree {
			r.addf("cg %d: nbfree %d, counted %d", cgx, cg.Nbfree, cgNb)
		}
		if cgNf != cg.Nffree {
			r.addf("cg %d: nffree %d, counted %d", cgx, cg.Nffree, cgNf)
		}
		if cgNi != cg.Nifree {
			r.addf("cg %d: nifree %d, counted %d", cgx, cg.Nifree, cgNi)
		}
		nbfree += cgNb
		nffree += cgNf
		nifree += cgNi
		ndir += cg.Ndir
	}
	if nbfree != sb.CsNbfree {
		r.addf("superblock: nbfree %d, counted %d", sb.CsNbfree, nbfree)
	}
	if nffree != sb.CsNffree {
		r.addf("superblock: nffree %d, counted %d", sb.CsNffree, nffree)
	}
	if nifree != sb.CsNifree {
		r.addf("superblock: nifree %d, counted %d", sb.CsNifree, nifree)
	}
	if ndir != sb.CsNdir {
		r.addf("superblock: ndir %d, counted %d", sb.CsNdir, ndir)
	}
	if int32(r.Dirs) != ndir {
		r.addf("directory count %d != cg ndir total %d", r.Dirs, ndir)
	}
	return r, nil
}
