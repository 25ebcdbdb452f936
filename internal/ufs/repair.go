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

// Repair fixes the file system on d's image in place and returns what
// it did. It fails only when no superblock can be recovered; every
// other inconsistency is repaired, destructively if necessary (an
// unreachable or structurally hopeless inode is cleared, a duplicate
// block claim is resolved in favor of the lower-numbered inode).
func Repair(d disk.Device) (*RepairReport, error) {
	rep := &RepairReport{}
	sb, err := ReadSuperblock(d)
	if err != nil {
		// Undecodable or lying about the device: either way not to be
		// believed, and a backup copy has to pass the same test.
		sb, err = findAltSuperblock(d)
		if err != nil {
			return nil, fmt.Errorf("ufs: repair: no usable superblock: %w", err)
		}
		rep.fixf("superblock: primary unreadable, restored from a backup copy")
	}
	rp := &repairer{image: image{d, sb}, r: rep}

	rp.dinode = rp.dinodes()
	rp.sanitizeInodes()
	rp.fixPointers()
	rp.ensureRoot()
	rp.walkDirectories()
	rp.rebuildMaps()

	rep.Check, err = Fsck(d)
	return rep, err
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

// claim records ino as the owner of [fsbn, fsbn+n); it fails without
// side effects if any fragment is out of range or already owned — as
// every metadata fragment is, by -1.
func (rp *repairer) claim(ino, fsbn, n int32) bool {
	if !rp.sb.inRange(fsbn, n) {
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
		for f := sb.CgBase(cgx); f < sb.CgDmin(cgx); f++ {
			owner[f] = -1
		}
	}
	return owner
}

// claimTree walks ino's pointer tree, claiming every block it names.
// It is the walk that changes what it visits: a pointer that lies
// beyond the file size, or whose fragments are out of range, metadata
// or already claimed (so a duplicate goes to the earlier claimant), is
// logged and zeroed, nothing under it is visited, and the pointer block
// that held it is rewritten. It returns the fragments claimed and the
// first block a directory turned out to be missing (-1: none).
func (rp *repairer) claimTree(ino int32) (frags int32, dirHole int64) {
	sb, di := rp.sb, &rp.dinode[ino]
	nblocks := (di.Size + int64(sb.Bsize) - 1) / int64(sb.Bsize)
	dirHole = -1
	hole := func(lbn int64) {
		if di.IsDir() && lbn < nblocks && (dirHole < 0 || lbn < dirHole) {
			dirHole = lbn
		}
	}
	rp.walk(di, visitor{hole: hole, fix: rp.write, check: func(height int, lbn int64, fsbn int32) bool {
		what, n := "indirect", sb.Frag
		if height == 0 {
			what, n = "block", sb.BlkFrags(di.Size, lbn)
		}
		if lbn >= nblocks {
			rp.r.fixf("ino %d: zeroed %s pointer at lbn %d beyond size %d", ino, what, lbn, di.Size)
			return false
		}
		if !rp.claim(ino, fsbn, n) {
			rp.r.fixf("ino %d: zeroed bad or duplicate %s pointer at lbn %d (fsbn %d)", ino, what, lbn, fsbn)
			hole(lbn)
			return false
		}
		frags += n
		return true
	}})
	return frags, dirHole
}

// fixPointers runs claimTree over every surviving inode in ascending
// inode order. Directories additionally may not contain holes, at any
// height of the tree: a directory is truncated at its first missing
// block, and cleared outright if that block is block 0.
func (rp *repairer) fixPointers() {
	rp.owner = rp.newOwnerMap()
	for i := range rp.dinode {
		ino, di := int32(i), &rp.dinode[i]
		if !di.Allocated() || di.Mode&ModeFmt == ModeLink {
			continue
		}
		if _, dirHole := rp.claimTree(ino); dirHole == 0 {
			rp.clear(ino, "directory lost its first block")
		} else if dirHole > 0 {
			size := dirHole * int64(rp.sb.Bsize)
			rp.r.fixf("ino %d: directory has a hole at block %d, truncated from %d to %d bytes", ino, dirHole, di.Size, size)
			di.Size = size
			// Pointers past the hole are now beyond the size; zero them
			// (the claim sweep in rebuildMaps releases what they claimed
			// above).
			rp.walk(di, visitor{fix: rp.write, check: func(_ int, lbn int64, _ int32) bool { return lbn < dirHole }})
		}
	}
}

// ensureRoot guarantees a usable root directory, rebuilding an empty
// one in the first free block (aligned relative to its group's base,
// like the allocator's) when the original is gone. Everything that hung
// off a lost root becomes unreachable and is cleared by the walk.
func (rp *repairer) ensureRoot() {
	sb := rp.sb
	di := &rp.dinode[RootIno]
	if di.IsDir() && di.DB[0] != 0 {
		return
	}
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		for fsbn := sb.CgDmin(cgx); fsbn+sb.Frag <= sb.CgBase(cgx+1); fsbn += sb.Frag {
			if rp.claim(RootIno, fsbn, sb.Frag) {
				var blk []byte
				*di, blk = rootDir(sb, fsbn)
				rp.write(fsbn, blk)
				rp.r.fixf("root directory rebuilt empty at fsbn %d", fsbn)
				return
			}
		}
	}
	// A full disk with no root is unrecoverable space-wise; leave the
	// problem for the final Fsck to report.
	rp.r.fixf("root inode unusable and no free block to rebuild it")
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
	// reached marks a directory referenced by a kept entry, which puts
	// it on the walk stack once; a second name for it (hard-linked
	// directory) is dropped at sight.
	reached := make([]bool, len(rp.dinode))
	reached[RootIno] = true

	type frame struct{ ino, parent int32 }
	stack := []frame{{RootIno, RootIno}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		di := &rp.dinode[fr.ino]
		var children []frame
		for lbn, fsbn := range rp.dataBlocks(di, di.Size/int64(sb.Bsize)) {
			if fsbn == 0 {
				continue // fixPointers already truncated holes; defensive
			}
			raw := rp.read(fsbn, sb.Frag)
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
						if reached[e.Ino] {
							rp.r.fixf("ino %d: dropped duplicate directory link %q -> %d", fr.ino, e.Name, e.Ino)
							rebuilt = true
							continue
						}
						reached[e.Ino] = true
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
			}
			if rebuilt {
				rp.write(fsbn, rp.buildDirBlock(keep))
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
		if di.IsDir() && !reached[ino] {
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
	for i := range rp.dinode {
		ino, di := int32(i), &rp.dinode[i]
		if !di.Allocated() || di.Mode&ModeFmt == ModeLink {
			continue
		}
		// Everything claimTree could refuse, fixPointers already has.
		if frags, _ := rp.claimTree(ino); di.Blocks != frags {
			rp.r.fixf("ino %d: di_blocks %d, holds %d fragments", ino, di.Blocks, frags)
			di.Blocks = frags
		}
	}

	rp.writeDinodes(rp.dinode)

	// Rebuild every cylinder group from the claims and the inode table.
	sb.CsNdir, sb.CsNbfree, sb.CsNifree, sb.CsNffree = 0, 0, 0, 0
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		cg := buildCG(sb, cgx, rp.owner[sb.CgBase(cgx):sb.CgBase(cgx+1)], rp.dinode[cgx*sb.Ipg:(cgx+1)*sb.Ipg])
		rp.write(sb.CgHeader(cgx), cg.Marshal(sb))
	}

	// Fresh superblock everywhere, marked clean.
	sb.Clean = 1
	sb.Fmod = 0
	rp.writeSuperblocks()
}
