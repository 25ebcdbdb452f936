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

	readBlk := func(fsbn int32) []byte {
		buf := make([]byte, sb.Bsize)
		d.ReadImage(sb.FsbToDb(fsbn), buf)
		return buf
	}

	// claim marks a data fragment used by an inode.
	claim := func(ino int32, fsbn, n int32) {
		for i := fsbn; i < fsbn+n; i++ {
			if i < 0 || i >= sb.Size {
				r.addf("ino %d: fragment %d out of range", ino, i)
				return
			}
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
		countData := func(lbn int64, fsbn int32) {
			n := sb.Frag
			if lbn < NDADDR {
				if f := int32(sb.BlkSize(di.Size, lbn)) / sb.Fsize; f > 0 {
					n = f
				}
			}
			claim(ino, fsbn, n)
			frags += n
		}
		for lbn := int64(0); lbn < NDADDR && lbn < nblocks; lbn++ {
			if di.DB[lbn] != 0 {
				countData(lbn, di.DB[lbn])
			}
		}
		if di.IB[0] != 0 {
			claim(ino, di.IB[0], sb.Frag)
			frags += sb.Frag
			ib := readBlk(di.IB[0])
			for i := int64(0); i < nindir && NDADDR+i < nblocks; i++ {
				if a := getIndir(ib, i); a != 0 {
					countData(NDADDR+i, a)
				}
			}
		}
		if di.IB[1] != 0 {
			claim(ino, di.IB[1], sb.Frag)
			frags += sb.Frag
			ib1 := readBlk(di.IB[1])
			for i := int64(0); i < nindir; i++ {
				l2 := getIndir(ib1, i)
				if l2 == 0 {
					continue
				}
				claim(ino, l2, sb.Frag)
				frags += sb.Frag
				ib2 := readBlk(l2)
				for j := int64(0); j < nindir; j++ {
					lbn := NDADDR + nindir + i*nindir + j
					if a := getIndir(ib2, j); a != 0 {
						if lbn >= nblocks {
							r.addf("ino %d: block %d beyond size %d", ino, lbn, di.Size)
						}
						countData(lbn, a)
					}
				}
			}
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
		// The walk below addresses direct and single-indirect blocks
		// only; a size beyond them is corruption, reported once rather
		// than as one hole per block the size claims.
		if reach := NDADDR + nindir; nblocks > reach {
			r.addf("dir ino %d: impossible size %d", ino, di.Size)
			nblocks = reach
		}
		sawDot, sawDotDot := false, false
		for lbn := int64(0); lbn < nblocks; lbn++ {
			var fsbn int32
			if lbn < NDADDR {
				fsbn = di.DB[lbn]
			} else if di.IB[0] != 0 && lbn-NDADDR < nindir {
				fsbn = getIndir(readBlk(di.IB[0]), lbn-NDADDR)
			}
			if fsbn == 0 {
				r.addf("dir ino %d: hole at block %d", ino, lbn)
				continue
			}
			ents, err := parseDirents(readBlk(fsbn))
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
