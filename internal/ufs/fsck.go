package ufs

import (
	"fmt"

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

	// Shadow fragment map: 0 free, 1 metadata (the log included), 2 data.
	shadow := make([]byte, sb.Size)
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		sb.reserved(cgx, func(f int32) { shadow[f] = 1 })
	}

	im := image{d, sb}

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

	// Pass 1: inodes and block pointers. An inode pass 1 refuses is
	// zeroed in the table, so "allocated" below means "passed".
	inodes := im.dinodes()
	links := make([]int16, len(inodes)) // directory references found in pass 2
	for i := range inodes {
		ino, di := int32(i), &inodes[i]
		if !di.Allocated() {
			continue
		}
		if ino < RootIno {
			r.addf("reserved inode %d is allocated", ino)
			*di = Dinode{}
			continue
		}
		switch di.Mode & ModeFmt {
		case ModeReg:
			r.Files++
		case ModeDir:
			r.Dirs++
		case ModeLink:
			// Fast symlink: the pointer area holds the target string,
			// not block addresses; it owns no fragments.
			if di.Blocks != 0 {
				r.addf("symlink ino %d claims %d fragments", ino, di.Blocks)
			}
			continue
		default:
			r.addf("ino %d: unknown mode %#x", ino, di.Mode)
			*di = Dinode{}
			continue
		}

		nblocks := (di.Size + int64(sb.Bsize) - 1) / int64(sb.Bsize)
		var frags int32
		// Claim every block the tree names, pointer blocks included. One
		// at an address claim reported out of range is not descended
		// into: image.read refuses it.
		im.walk(di, visitor{check: func(height int, lbn int64, fsbn int32) bool {
			n := sb.Frag
			if height == 0 {
				if lbn >= nblocks {
					r.addf("ino %d: block %d beyond size %d", ino, lbn, di.Size)
				}
				n = sb.BlkFrags(di.Size, lbn)
			}
			claim(ino, fsbn, n)
			frags += n
			return true
		}})
		if frags != di.Blocks {
			r.addf("ino %d: holds %d fragments but di_blocks says %d", ino, frags, di.Blocks)
		}
	}

	// Pass 2: directory structure from the root.
	if !inodes[RootIno].IsDir() {
		r.addf("root inode missing or not a directory")
		return r, nil
	}
	var walk func(ino int32, parent int32, depth int)
	visited := make([]bool, len(inodes))
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
		di := &inodes[ino]
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
		for lbn, fsbn := range im.dataBlocks(di, nblocks) {
			if fsbn == 0 {
				r.addf("dir ino %d: hole at block %d", ino, lbn)
				continue
			}
			blk := im.read(fsbn, sb.Frag)
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
				if e.Ino < 0 || int(e.Ino) >= len(inodes) || !inodes[e.Ino].Allocated() {
					r.addf("dir ino %d: entry %q points to unallocated ino %d", ino, e.Name, e.Ino)
					continue
				}
				switch e.Name {
				case ".":
					sawDot = true
					if e.Ino != ino {
						r.addf("dir ino %d: \".\" points to %d", ino, e.Ino)
					}
					links[e.Ino]++
				case "..":
					sawDotDot = true
					if e.Ino != parent {
						r.addf("dir ino %d: \"..\" points to %d, want %d", ino, e.Ino, parent)
					}
					links[e.Ino]++
				default:
					links[e.Ino]++
					if inodes[e.Ino].IsDir() {
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

	for ino := range inodes {
		di := &inodes[ino]
		if !di.Allocated() {
			continue
		}
		if links[ino] != di.Nlink {
			r.addf("ino %d: link count %d, found %d references", ino, di.Nlink, links[ino])
		}
		if di.IsDir() && !visited[ino] {
			r.addf("orphan directory ino %d", ino)
		}
	}

	// Pass 3: bitmaps and summaries. recount reports a stored total that
	// disagrees with what this pass counted.
	recount := func(where, what string, stored, counted int32) {
		if stored != counted {
			r.addf("%s: %s %d, counted %d", where, what, stored, counted)
		}
	}
	var nbfree, nffree, nifree, ndir int32
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		cg, err := UnmarshalCG(sb, im.read(sb.CgHeader(cgx), sb.Frag))
		if err != nil {
			r.addf("cg %d: %v", cgx, err)
			continue
		}
		base := sb.CgBase(cgx)
		cgNb, cgNf := cg.countFree(sb)
		var cgNi int32
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
		for i := int32(0); i < sb.Ipg; i++ {
			ino := cgx*sb.Ipg + i
			used := cg.InodeUsed(i)
			allocated := inodes[ino].Allocated() || ino < RootIno // reserved inodes are marked used
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
		where := fmt.Sprintf("cg %d", cgx)
		recount(where, "nbfree", cg.Nbfree, cgNb)
		recount(where, "nffree", cg.Nffree, cgNf)
		recount(where, "nifree", cg.Nifree, cgNi)
		nbfree += cgNb
		nffree += cgNf
		nifree += cgNi
		ndir += cg.Ndir
	}
	recount("superblock", "nbfree", sb.CsNbfree, nbfree)
	recount("superblock", "nffree", sb.CsNffree, nffree)
	recount("superblock", "nifree", sb.CsNifree, nifree)
	recount("superblock", "ndir", sb.CsNdir, ndir)
	if int32(r.Dirs) != ndir {
		r.addf("directory count %d != cg ndir total %d", r.Dirs, ndir)
	}
	return r, nil
}
