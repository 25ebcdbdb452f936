package ufs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ufsclust/internal/sim"
)

// repairRig is a testRig plus offline helpers for mutating the image
// between SyncImage and Repair.
func (r *testRig) repair(t *testing.T) *RepairReport {
	t.Helper()
	rep, err := Repair(r.d)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	return rep
}

// readDinode reads one on-image dinode.
func (r *testRig) readDinode(ino int32) Dinode {
	blk := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(r.sb.InoToFsba(ino)), blk)
	return UnmarshalDinode(blk[r.sb.InoBlockOff(ino) : r.sb.InoBlockOff(ino)+DinodeSize])
}

// writeDinode writes one on-image dinode.
func (r *testRig) writeDinode(ino int32, di Dinode) {
	fsba := r.sb.InoToFsba(ino)
	blk := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(fsba), blk)
	di.MarshalInto(blk[r.sb.InoBlockOff(ino) : r.sb.InoBlockOff(ino)+DinodeSize])
	r.d.WriteImage(r.sb.FsbToDb(fsba), blk)
}

// findReg returns the first nth (0-based) allocated regular inode.
func (r *testRig) findReg(t *testing.T, nth int) int32 {
	t.Helper()
	for ino := int32(RootIno + 1); ino < r.sb.Ncg*r.sb.Ipg; ino++ {
		di := r.readDinode(ino)
		if di.Allocated() && di.Mode&ModeFmt == ModeReg {
			if nth == 0 {
				return ino
			}
			nth--
		}
	}
	t.Fatal("regular inode not found on image")
	return -1
}

// mkFileWithData creates path holding one block of pattern bytes and
// flushes the image.
func (r *testRig) mkFileWithData(t *testing.T, path string, pat byte) {
	t.Helper()
	r.run(t, func(p *sim.Proc) {
		ip, err := r.fs.Create(p, path)
		if err != nil {
			t.Errorf("create %s: %v", path, err)
			return
		}
		if _, err := r.fs.BmapAlloc(p, ip, 0, int(r.sb.Bsize)); err != nil {
			t.Errorf("alloc %s: %v", path, err)
			return
		}
		ip.D.Size = int64(r.sb.Bsize)
		ip.MarkDirty()
	})
	r.fs.SyncImage()
	ino := r.findReg(t, 0)
	di := r.readDinode(ino)
	data := bytes.Repeat([]byte{pat}, int(r.sb.Bsize))
	r.d.WriteImage(r.sb.FsbToDb(di.DB[0]), data)
}

func TestRepairCleanImageNoFixes(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.mkFileWithData(t, "/f", 0xA5)
	ino := r.findReg(t, 0)
	before := r.readDinode(ino)

	rep := r.repair(t)
	if !rep.Clean() {
		t.Fatalf("repaired clean image not clean: %v", rep.Check.Problems)
	}
	if len(rep.Fixes) != 0 {
		t.Fatalf("repair of a clean image applied fixes: %v", rep.Fixes)
	}
	// The file and its data survived untouched.
	after := r.readDinode(ino)
	if after.DB[0] != before.DB[0] || after.Size != before.Size {
		t.Fatalf("clean repair disturbed the inode: %+v -> %+v", before, after)
	}
	buf := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(after.DB[0]), buf)
	if buf[0] != 0xA5 || buf[len(buf)-1] != 0xA5 {
		t.Fatal("clean repair disturbed file data")
	}
}

func TestRepairZeroesPointerIntoMetadata(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.mkFileWithData(t, "/f", 0x11)
	ino := r.findReg(t, 0)
	di := r.readDinode(ino)
	di.DB[0] = r.sb.CgHeader(0) // metadata!
	r.writeDinode(ino, di)

	rep := r.repair(t)
	if !rep.Clean() {
		t.Fatalf("not clean after repair: %v", rep.Check.Problems)
	}
	if got := r.readDinode(ino); got.DB[0] != 0 {
		t.Fatalf("metadata pointer survived repair: DB[0]=%d", got.DB[0])
	}
	found := false
	for _, f := range rep.Fixes {
		if strings.Contains(f, "bad or duplicate block pointer") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fix log missing the pointer repair: %v", rep.Fixes)
	}
}

func TestRepairResolvesDuplicateClaimForLowerInode(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		a, err := r.fs.Create(p, "/a")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := r.fs.BmapAlloc(p, a, 0, int(r.sb.Bsize)); err != nil {
			t.Error(err)
			return
		}
		a.D.Size = int64(r.sb.Bsize)
		a.MarkDirty()
		b, err := r.fs.Create(p, "/b")
		if err != nil {
			t.Error(err)
			return
		}
		// Corrupt: /b claims /a's block.
		b.D.DB[0] = a.D.DB[0]
		b.D.Size = int64(r.sb.Bsize)
		b.D.Blocks = r.sb.Frag
		b.MarkDirty()
	})
	r.fs.SyncImage()
	inoA, inoB := r.findReg(t, 0), r.findReg(t, 1)
	if inoA >= inoB {
		inoA, inoB = inoB, inoA
	}
	shared := r.readDinode(inoA).DB[0]

	rep := r.repair(t)
	if !rep.Clean() {
		t.Fatalf("not clean after repair: %v", rep.Check.Problems)
	}
	if got := r.readDinode(inoA).DB[0]; got != shared {
		t.Fatalf("lower inode lost its block: DB[0]=%d, want %d", got, shared)
	}
	if got := r.readDinode(inoB).DB[0]; got != 0 {
		t.Fatalf("higher inode kept the duplicate claim: DB[0]=%d", got)
	}
}

func TestRepairFixesLinkCount(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, err := r.fs.Create(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		ip.D.Nlink = 5 // lie
		ip.MarkDirty()
	})
	r.fs.SyncImage()
	ino := r.findReg(t, 0)

	rep := r.repair(t)
	if !rep.Clean() {
		t.Fatalf("not clean after repair: %v", rep.Check.Problems)
	}
	if got := r.readDinode(ino).Nlink; got != 1 {
		t.Fatalf("Nlink = %d after repair, want 1", got)
	}
}

func TestRepairClearsOrphans(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.fs.Mkdir(p, "/d"); err != nil {
			t.Error(err)
			return
		}
		if _, err := r.fs.Create(p, "/f"); err != nil {
			t.Error(err)
			return
		}
		// Orphan both: names removed, inodes left allocated.
		root := mustIget(t, r, p, RootIno)
		if _, err := r.fs.DirRemove(p, root, "d"); err != nil {
			t.Error(err)
		}
		if _, err := r.fs.DirRemove(p, root, "f"); err != nil {
			t.Error(err)
		}
	})
	r.fs.SyncImage()

	rep := r.repair(t)
	if !rep.Clean() {
		t.Fatalf("not clean after repair: %v", rep.Check.Problems)
	}
	if rep.Check.Files != 0 || rep.Check.Dirs != 1 {
		t.Fatalf("post-repair tree has %d files %d dirs, want 0/1", rep.Check.Files, rep.Check.Dirs)
	}
}

func TestRepairRebuildsCorruptDirBlock(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.fs.Create(p, "/x"); err != nil {
			t.Error(err)
		}
	})
	r.fs.SyncImage()
	// Smash the root directory block's reclen chain.
	rootDi := r.readDinode(RootIno)
	blk := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(rootDi.DB[0]), blk)
	blk[4], blk[5] = 3, 0 // reclen 3: not 4-aligned, below minimum
	r.d.WriteImage(r.sb.FsbToDb(rootDi.DB[0]), blk)

	rep := r.repair(t)
	if !rep.Clean() {
		t.Fatalf("not clean after repair: %v", rep.Check.Problems)
	}
	rebuilt := false
	for _, f := range rep.Fixes {
		if strings.Contains(f, "unparseable") {
			rebuilt = true
		}
	}
	if !rebuilt {
		t.Fatalf("fix log missing the dir rebuild: %v", rep.Fixes)
	}
}

func TestRepairRestoresSuperblockFromBackup(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.mkFileWithData(t, "/f", 0x3C)
	// Wipe the primary superblock.
	r.d.WriteImage(r.sb.FsbToDb(r.sb.CgSBlock(0)), make([]byte, SBSize))

	rep := r.repair(t)
	if !rep.Clean() {
		t.Fatalf("not clean after repair: %v", rep.Check.Problems)
	}
	if len(rep.Fixes) == 0 || !strings.Contains(rep.Fixes[0], "restored from a backup") {
		t.Fatalf("fix log missing the superblock restore: %v", rep.Fixes)
	}
	// The primary is back and the file survived.
	if _, err := ReadSuperblock(r.d); err != nil {
		t.Fatalf("primary superblock still unreadable: %v", err)
	}
	ino := r.findReg(t, 0)
	buf := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(r.readDinode(ino).DB[0]), buf)
	if buf[0] != 0x3C {
		t.Fatal("file data lost across superblock recovery")
	}
}

func TestRepairRebuildsSmashedGroupHeader(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.mkFileWithData(t, "/f", 0x77)
	// Zero an entire cylinder-group header (bitmaps included).
	r.d.WriteImage(r.sb.FsbToDb(r.sb.CgHeader(0)), make([]byte, r.sb.Bsize))

	rep := r.repair(t)
	if !rep.Clean() {
		t.Fatalf("not clean after repair: %v", rep.Check.Problems)
	}
	if rep.Check.Files != 1 {
		t.Fatalf("post-repair tree has %d files, want 1", rep.Check.Files)
	}
}

func TestRepairClearsInsaneInodes(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.fs.Create(p, "/f"); err != nil {
			t.Error(err)
		}
	})
	r.fs.SyncImage()
	ino := r.findReg(t, 0)
	di := r.readDinode(ino)
	di.Size = -1
	r.writeDinode(ino, di)

	rep := r.repair(t)
	if !rep.Clean() {
		t.Fatalf("not clean after repair: %v", rep.Check.Problems)
	}
	if got := r.readDinode(ino); got.Allocated() {
		t.Fatalf("inode with impossible size survived: %+v", got)
	}
}

// TestRepairIsIdempotent runs Repair twice over a corrupted image; the
// second pass must find a clean file system and change nothing.
func TestRepairIsIdempotent(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.mkFileWithData(t, "/f", 0x5A)
	ino := r.findReg(t, 0)
	di := r.readDinode(ino)
	di.DB[1] = di.DB[0] // duplicate claim inside one inode
	r.writeDinode(ino, di)

	first := r.repair(t)
	if !first.Clean() {
		t.Fatalf("first repair not clean: %v", first.Check.Problems)
	}
	second := r.repair(t)
	if !second.Clean() {
		t.Fatalf("second repair not clean: %v", second.Check.Problems)
	}
	if len(second.Fixes) != 0 {
		t.Fatalf("second repair applied fixes: %v", second.Fixes)
	}
}

// TestFsckBoundedOnImpossibleDirSize: pass 2 used to walk di.Size/Bsize
// blocks and report one hole per absent block, so a corrupt root size
// produced a million problem lines (1<<33) or exhausted memory (1<<62).
// The walk is clamped to the blocks a directory can address and the
// size is reported once.
func TestFsckBoundedOnImpossibleDirSize(t *testing.T) {
	for _, size := range []int64{1 << 33, 1 << 62} {
		r := newRig(t, MkfsOpts{})
		r.fs.SyncImage()
		di := r.readDinode(RootIno)
		di.Size = size
		r.writeDinode(RootIno, di)

		rep, err := Fsck(r.d)
		if err != nil {
			t.Fatal(err)
		}
		reach := int(NDADDR + r.sb.NindirPerBlock())
		if n := len(rep.Problems); n == 0 || n > reach+8 {
			t.Fatalf("size %d: %d problems, want between 1 and the %d blocks a directory can address", size, n, reach)
		}
		if want := fmt.Sprintf("dir ino %d: impossible size %d", RootIno, size); !strings.Contains(strings.Join(rep.Problems, "\n"), want) {
			t.Errorf("size %d: no %q among %d problems", size, want, len(rep.Problems))
		}
	}
}
