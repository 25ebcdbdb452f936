package ufs

import (
	"fmt"

	"ufsclust/internal/disk"
)

// This file is the one offline checker: Repair rewrites the image until
// it is consistent, and Fsck is the same walk with its writes kept in
// memory (image.dry). For the fault-injection harness (internal/fault,
// internal/faultlab), Repair must bring a torn image — a power cut
// applies only the acknowledged-durable sectors — back to a mountable,
// consistent state without losing any byte acknowledged as durable.
//
// The durability contract it leans on (see core.File.Fsync and
// Fs.SyncInode): data pages, indirect blocks, and the inode are written
// before an fsync returns, in that order, and directory entries are
// written synchronously at create time. Bitmaps, cylinder-group headers
// and superblock totals are NOT kept durable — Repair rebuilds all of
// them from the inodes, which are the single source of truth.

// Class is the kind of inconsistency a Finding names, from a closed set.
type Class uint8

const (
	ClassSuperblock Class = iota // the primary superblock is unusable
	ClassInode                   // an inode's own fields are impossible
	ClassRange                   // a pointer leaves the file system
	ClassMetadata                // a pointer lands on group metadata or the log
	ClassDuplicate               // a fragment is claimed twice
	ClassBeyondSize              // a pointer lies past its file's size
	ClassDirectory               // a directory's size or blocks, the root's included
	ClassDirent                  // a directory entry or block is bad
	ClassLinkCount               // di_nlink disagrees with the references
	ClassOrphan                  // an inode no directory reaches
	ClassBlockCount              // di_blocks disagrees with the tree
	ClassBitmap                  // a group's bitmaps or header disagree with the inodes
	ClassSummary                 // a stored free or directory count is wrong
)

var classNames = [...]string{"superblock", "inode", "out of range", "metadata overlap", "duplicate claim",
	"beyond size", "directory", "bad dirent", "link count", "orphan", "block count", "bitmap", "summary"}

func (c Class) String() string { return classNames[c] }

// Finding is one inconsistency and the change Repair makes for it.
type Finding struct {
	Class Class
	text  string
}

func (f Finding) String() string { return f.Class.String() + ": " + f.text }

// FsckReport is what the checker found: Fsck's problems, or the fixes
// Repair applied. The counts describe the image as Repair leaves it.
type FsckReport struct {
	Problems             []Finding // one per change, deterministic order
	Files, Dirs          int
	UsedFrags, FreeFrags int64
}

// Clean reports whether no problems were found.
func (r *FsckReport) Clean() bool { return len(r.Problems) == 0 }

// RepairReport records what Repair changed, plus the post-repair check.
type RepairReport struct {
	Fixes []Finding   // one line per change applied, deterministic order
	Check *FsckReport // Fsck of the repaired image
}

// Clean reports whether the repaired image passed its final check.
func (r *RepairReport) Clean() bool { return r.Check != nil && r.Check.Clean() }

// repairer carries the working state of one walk.
type repairer struct {
	image
	r      *FsckReport
	dinode []Dinode // indexed by ino; cleared entries are the zero value
	owner  []int32  // fragment -> claiming ino; 0 free, -1 metadata
}

func (rp *repairer) findf(c Class, format string, args ...any) {
	rp.r.Problems = append(rp.r.Problems, Finding{c, fmt.Sprintf(format, args...)})
}

// Fsck checks the file system on d's image without writing to it: its
// problems are the fixes Repair would apply, line for line, and its
// counts describe the image Repair would leave. It fails only when no
// superblock copy can be believed. It is how the repository shows the
// paper's headline constraint — the clustered engine leaves images
// byte-compatible with the legacy one.
func Fsck(d disk.Device) (*FsckReport, error) {
	return check(d, map[int32][]byte{})
}

// Repair fixes the file system on d's image in place, returns what it
// did, and closes with an Fsck of the result. It fails only when no
// superblock can be recovered; every other inconsistency is repaired,
// destructively if necessary (an unreachable or structurally hopeless
// inode is cleared, a duplicate block claim is resolved in favor of the
// lower-numbered inode).
func Repair(d disk.Device) (*RepairReport, error) {
	r, err := check(d, nil)
	if err != nil {
		return nil, err
	}
	rep := &RepairReport{Fixes: r.Problems}
	rep.Check, err = Fsck(d)
	return rep, err
}

// check runs the walk over d, writing to dry when it is not nil.
func check(d disk.Device, dry map[int32][]byte) (*FsckReport, error) {
	rp := &repairer{image: image{d: d, dry: dry}, r: &FsckReport{}}
	sb, err := ReadSuperblock(d)
	if err != nil {
		// Undecodable or lying about the device: either way not to be
		// believed, and a backup copy has to pass the same test.
		alt, aerr := findAltSuperblock(d)
		if aerr != nil {
			return nil, fmt.Errorf("%w; %v", err, aerr)
		}
		rp.findf(ClassSuperblock, "primary unusable (%v), restored from a backup copy", err)
		sb = alt
	}
	rp.sb = sb
	rp.dinode = rp.dinodes()
	rp.sanitizeInodes()
	rp.fixPointers()
	rp.ensureRoot()
	rp.walkDirectories()
	rp.rebuildMaps()
	return rp.r, nil
}

// clear wipes an inode (and logs why).
func (rp *repairer) clear(ino int32, c Class, why string) {
	rp.dinode[ino] = Dinode{}
	rp.findf(c, "ino %d: cleared (%s)", ino, why)
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
			rp.clear(int32(ino), ClassInode, "reserved inode")
			continue
		}
		if f := di.Mode & ModeFmt; f != ModeReg && f != ModeDir && f != ModeLink {
			rp.clear(int32(ino), ClassInode, fmt.Sprintf("unknown mode %#x", di.Mode))
			continue
		}
		if di.Size < 0 || di.Size > maxSize {
			rp.clear(int32(ino), ClassInode, fmt.Sprintf("impossible size %d", di.Size))
			continue
		}
		if di.Mode&ModeFmt == ModeLink && di.Blocks != 0 {
			rp.findf(ClassBlockCount, "ino %d: symlink claimed %d fragments, zeroed", ino, di.Blocks)
			di.Blocks = 0
		}
		if di.IsDir() && di.Size%int64(sb.Bsize) != 0 {
			fixed := di.Size / int64(sb.Bsize) * int64(sb.Bsize)
			rp.findf(ClassDirectory, "ino %d: dir size %d not a block multiple, truncated to %d", ino, di.Size, fixed)
			di.Size = fixed
		}
		if di.IsDir() && di.Size == 0 {
			rp.clear(int32(ino), ClassDirectory, "directory with no blocks")
		}
	}
}

// claim records ino as the owner of [fsbn, fsbn+n). It fails without
// side effects, naming the reason, if any fragment is out of range or
// already owned — as every metadata fragment is, by -1.
func (rp *repairer) claim(ino, fsbn, n int32) (Class, bool) {
	if !rp.sb.inRange(fsbn, n) {
		return ClassRange, false
	}
	for i := fsbn; i < fsbn+n; i++ {
		if o := rp.owner[i]; o < 0 {
			return ClassMetadata, false
		} else if o > 0 {
			return ClassDuplicate, false
		}
	}
	for i := fsbn; i < fsbn+n; i++ {
		rp.owner[i] = ino
	}
	return 0, true
}

// claimAll starts a fresh owner map, metadata and the log pre-marked,
// and runs claimTree over every inode that holds blocks, in ascending
// inode order, handing each result to then.
func (rp *repairer) claimAll(then func(ino int32, di *Dinode, frags int32, dirHole int64)) {
	sb := rp.sb
	rp.owner = make([]int32, sb.Size)
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		sb.reserved(cgx, func(f int32) { rp.owner[f] = -1 })
	}
	for i := range rp.dinode {
		if di := &rp.dinode[i]; di.Allocated() && di.Mode&ModeFmt != ModeLink {
			frags, dirHole := rp.claimTree(int32(i))
			then(int32(i), di, frags, dirHole)
		}
	}
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
			rp.findf(ClassBeyondSize, "ino %d: zeroed %s pointer at lbn %d beyond size %d", ino, what, lbn, di.Size)
			return false
		}
		if c, ok := rp.claim(ino, fsbn, n); !ok {
			rp.findf(c, "ino %d: zeroed %s pointer at lbn %d (fsbn %d)", ino, what, lbn, fsbn)
			hole(lbn)
			return false
		}
		frags += n
		return true
	}})
	return frags, dirHole
}

// fixPointers is the first claim sweep. Directories additionally may
// not contain holes, at any height of the tree: a directory is
// truncated at its first missing block, and cleared outright if that
// block is block 0.
func (rp *repairer) fixPointers() {
	rp.claimAll(func(ino int32, di *Dinode, _ int32, dirHole int64) {
		if dirHole == 0 {
			rp.clear(ino, ClassDirectory, "directory lost its first block")
		} else if dirHole > 0 {
			size := dirHole * int64(rp.sb.Bsize)
			rp.findf(ClassDirectory, "ino %d: directory has a hole at block %d, truncated from %d to %d bytes", ino, dirHole, di.Size, size)
			di.Size = size
			// Pointers past the hole are now beyond the size; zero them
			// (the claim sweep in rebuildMaps releases what they claimed
			// above).
			rp.walk(di, visitor{fix: rp.write, check: func(_ int, lbn int64, _ int32) bool { return lbn < dirHole }})
		}
	})
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
			if _, ok := rp.claim(RootIno, fsbn, sb.Frag); ok {
				var blk []byte
				*di, blk = rootDir(sb, fsbn)
				rp.write(fsbn, blk)
				rp.findf(ClassDirectory, "root directory rebuilt empty at fsbn %d", fsbn)
				return
			}
		}
	}
	// A full disk with no root is unrecoverable space-wise; leave the
	// problem for the final Fsck to report.
	rp.findf(ClassDirectory, "root inode unusable and no free block to rebuild it")
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
			ents, err := parseDirents(rp.read(fsbn, sb.Frag))
			rebuilt := err != nil
			if rebuilt {
				rp.findf(ClassDirent, "ino %d: directory block %d unparseable (%v), rebuilt", fr.ino, lbn, err)
			}
			// Block 0's "." and ".." are set aside and their room kept,
			// so the block still fits when they are restored.
			var keep []Dirent
			used, sawDot, sawDotDot := 0, false, false
			if lbn == 0 {
				used = direntSize(1) + direntSize(2)
			}
			for _, e := range ents {
				switch {
				case e.Ino == 0: // a free record: no entry
				case lbn == 0 && e.Name == "." && !sawDot:
					if e.Ino != fr.ino {
						rp.findf(ClassDirent, "ino %d: \".\" pointed to %d, fixed", fr.ino, e.Ino)
						rebuilt = true
					}
					sawDot = true
				case lbn == 0 && e.Name == ".." && !sawDotDot:
					if e.Ino != fr.parent {
						rp.findf(ClassDirent, "ino %d: \"..\" pointed to %d, fixed to %d", fr.ino, e.Ino, fr.parent)
						rebuilt = true
					}
					sawDotDot = true
				case e.Ino < RootIno || e.Ino >= int32(len(rp.dinode)) || !rp.dinode[e.Ino].Allocated():
					rp.findf(ClassDirent, "ino %d: dropped entry %q -> dead ino %d", fr.ino, e.Name, e.Ino)
					rebuilt = true
				case rp.dinode[e.Ino].IsDir() && reached[e.Ino]:
					rp.findf(ClassDirent, "ino %d: dropped duplicate directory link %q -> %d", fr.ino, e.Name, e.Ino)
					rebuilt = true
				case used+direntSize(len(e.Name)) > int(sb.Bsize):
					rp.findf(ClassDirent, "ino %d: no room for entry %q beside \".\" and \"..\", dropped", fr.ino, e.Name)
					rebuilt = true
				default:
					used += direntSize(len(e.Name))
					keep = append(keep, e)
					links[e.Ino]++
					if rp.dinode[e.Ino].IsDir() {
						reached[e.Ino] = true
						children = append(children, frame{e.Ino, fr.ino})
					}
				}
			}
			if lbn == 0 {
				if !sawDot || !sawDotDot {
					rp.findf(ClassDirent, "ino %d: restored missing \".\"/\"..\"", fr.ino)
					rebuilt = true
				}
				keep = append([]Dirent{{Ino: fr.ino, Name: "."}, {Ino: fr.parent, Name: ".."}}, keep...)
				links[fr.ino]++
				links[fr.parent]++
			}
			if rebuilt {
				blk := make([]byte, sb.Bsize)
				packDir(blk, keep)
				rp.write(fsbn, blk)
			}
		}
		// Push children in reverse so the walk visits them in directory
		// order — keeps the fix log deterministic.
		for i := len(children) - 1; i >= 0; i-- {
			stack = append(stack, children[i])
		}
	}

	for i := range rp.dinode {
		ino, di := int32(i), &rp.dinode[i]
		if !di.Allocated() {
			continue // reserved inodes included: sanitizeInodes cleared them
		}
		if di.IsDir() && !reached[ino] {
			rp.clear(ino, ClassOrphan, "unreachable directory")
			continue
		}
		if !di.IsDir() && links[ino] == 0 {
			rp.clear(ino, ClassOrphan, "unreferenced inode")
			continue
		}
		if di.Nlink != links[ino] {
			rp.findf(ClassLinkCount, "ino %d: link count %d, counted %d", ino, di.Nlink, links[ino])
			di.Nlink = links[ino]
		}
	}
}

// rebuildMaps re-derives everything below the inodes: a fresh claim
// sweep fixes each survivor's di_blocks, then bitmaps, cylinder-group
// headers and superblock totals are rebuilt from scratch, each compared
// with what is stored, and every piece of metadata — inode blocks
// included — is written back. Last it counts what the image holds.
func (rp *repairer) rebuildMaps() {
	sb := rp.sb
	// Everything claimTree could refuse, fixPointers already has.
	rp.claimAll(func(ino int32, di *Dinode, frags int32, _ int64) {
		if di.Blocks != frags {
			rp.findf(ClassBlockCount, "ino %d: di_blocks %d, holds %d fragments", ino, di.Blocks, frags)
			di.Blocks = frags
		}
	})

	rp.writeDinodes(rp.dinode)

	// Rebuild every cylinder group from the claims and the inode table.
	stored := *sb
	sb.CsNdir, sb.CsNbfree, sb.CsNifree, sb.CsNffree = 0, 0, 0, 0
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		cg := buildCG(sb, cgx, rp.owner[sb.CgBase(cgx):sb.CgBase(cgx+1)], rp.dinode[cgx*sb.Ipg:(cgx+1)*sb.Ipg])
		rp.compareCG(cgx, cg)
		rp.write(sb.CgHeader(cgx), cg.Marshal(sb))
	}
	rp.recount("superblock", "nbfree", stored.CsNbfree, sb.CsNbfree)
	rp.recount("superblock", "nffree", stored.CsNffree, sb.CsNffree)
	rp.recount("superblock", "nifree", stored.CsNifree, sb.CsNifree)
	rp.recount("superblock", "ndir", stored.CsNdir, sb.CsNdir)

	// Fresh superblock everywhere, marked clean.
	sb.Clean, sb.Fmod = 1, 0
	rp.writeSuperblocks()

	for i := range rp.dinode {
		if rp.dinode[i].IsReg() {
			rp.r.Files++
		}
	}
	rp.r.Dirs = int(sb.CsNdir)
	rp.r.FreeFrags = int64(sb.CsNbfree)*int64(sb.Frag) + int64(sb.CsNffree)
	rp.r.UsedFrags = int64(sb.Size) - rp.r.FreeFrags
}

// compareCG reports how the stored group cgx differs from built, the
// group written in its place: every fragment and inode whose bit
// changes, then every count.
func (rp *repairer) compareCG(cgx int32, built *CG) {
	sb := rp.sb
	cg, err := UnmarshalCG(sb, rp.read(sb.CgHeader(cgx), sb.cgHdrFrags()))
	if err != nil {
		rp.findf(ClassBitmap, "cg %d: %v, rebuilt", cgx, err)
		return
	}
	for f := int32(0); f < sb.Fpg; f++ {
		switch free := cg.FragFree(f); {
		case free && !built.FragFree(f):
			rp.findf(ClassBitmap, "cg %d: fragment %d free in bitmap but in use", cgx, sb.CgBase(cgx)+f)
		case !free && built.FragFree(f):
			rp.findf(ClassBitmap, "cg %d: fragment %d allocated in bitmap but unreferenced", cgx, sb.CgBase(cgx)+f)
		}
	}
	for i := int32(0); i < sb.Ipg; i++ {
		switch used := cg.InodeUsed(i); {
		case used && !built.InodeUsed(i):
			rp.findf(ClassBitmap, "cg %d: inode %d marked used but unallocated", cgx, cgx*sb.Ipg+i)
		case !used && built.InodeUsed(i):
			rp.findf(ClassBitmap, "cg %d: inode %d allocated but marked free", cgx, cgx*sb.Ipg+i)
		}
	}
	where := fmt.Sprintf("cg %d", cgx)
	rp.recount(where, "nbfree", cg.Nbfree, built.Nbfree)
	rp.recount(where, "nffree", cg.Nffree, built.Nffree)
	rp.recount(where, "nifree", cg.Nifree, built.Nifree)
	rp.recount(where, "ndir", cg.Ndir, built.Ndir)
}

// recount reports a stored total that disagrees with the rebuilt one.
func (rp *repairer) recount(where, what string, stored, counted int32) {
	if stored != counted {
		rp.findf(ClassSummary, "%s: %s %d, counted %d", where, what, stored, counted)
	}
}
