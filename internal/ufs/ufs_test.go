package ufs

import (
	"strings"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
)

// testRig assembles a small device + driver + mounted fs.
type testRig struct {
	s  *sim.Sim
	d  disk.Device
	dr *driver.Driver
	fs *Fs
	sb *Superblock
}

// smallDisk is ~25 MB so tests run fast: 96 cyls x 8 heads x 64 spt.
func smallGeom() *disk.Geometry { return disk.UniformGeometry(96, 8, 64, 3600) }

func newRig(t *testing.T, opts MkfsOpts) *testRig { return newRigOn(t, nil, opts) }

// newRigOn builds the rig on a volume of small drives; a nil vc means
// one bare drive.
func newRigOn(t *testing.T, vc *vol.Config, opts MkfsOpts) *testRig {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	p := disk.DefaultParams()
	p.Geom = smallGeom()
	var d disk.Device
	if vc == nil {
		d = disk.New(s, "d0", p)
	} else {
		cfg := *vc
		cfg.Member = &p
		v, err := vol.New(s, "vol0", cfg)
		if err != nil {
			t.Fatalf("vol: %v", err)
		}
		d = v
	}
	if _, err := Mkfs(d, opts); err != nil {
		t.Fatalf("mkfs: %v", err)
	}
	dr := driver.New(s, d, nil, driver.DefaultConfig())
	fs, err := Mount(s, nil, dr, MountOpts{})
	if err != nil {
		t.Fatalf("mount: %v", err)
	}
	// Share the mounted superblock so tests observe live accounting.
	return &testRig{s: s, d: d, dr: dr, fs: fs, sb: fs.SB}
}

// run executes fn as a simulated process and drives the sim to quiet.
func (r *testRig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.s.Spawn("test", fn)
	if err := r.s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// fsck flushes state and checks the image.
func (r *testRig) fsck(t *testing.T) *FsckReport {
	t.Helper()
	r.fs.SyncImage()
	rep, err := Fsck(r.d)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	return rep
}

func TestMkfsProducesCleanFs(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	rep := r.fsck(t)
	if !rep.Clean() {
		t.Fatalf("fresh fs not clean: %v", rep.Problems)
	}
	if rep.Dirs != 1 || rep.Files != 0 {
		t.Fatalf("fresh fs has %d dirs %d files", rep.Dirs, rep.Files)
	}
}

func TestSuperblockRoundTrip(t *testing.T) {
	r := newRig(t, MkfsOpts{Rotdelay: 4, Maxcontig: 1})
	sb2, err := ReadSuperblock(r.d)
	if err != nil {
		t.Fatal(err)
	}
	if *sb2 != *r.sb {
		t.Fatalf("superblock round trip mismatch:\n%+v\n%+v", r.sb, sb2)
	}
	if sb2.Rotdelay != 4 || sb2.Maxcontig != 1 {
		t.Fatal("tuning fields lost")
	}
}

func TestSuperblockReplicasWritten(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	for cgx := int32(0); cgx < r.sb.Ncg; cgx++ {
		buf := make([]byte, SBSize)
		r.d.ReadImage(r.sb.FsbToDb(r.sb.CgSBlock(cgx)), buf)
		sb, err := UnmarshalSuperblock(buf)
		if err != nil {
			t.Fatalf("cg %d replica: %v", cgx, err)
		}
		if sb.Size != r.sb.Size {
			t.Fatalf("cg %d replica differs", cgx)
		}
	}
}

func TestDinodeMarshalRoundTrip(t *testing.T) {
	d := Dinode{
		Mode: ModeReg | 0o644, Nlink: 3, UID: 7, GID: 8,
		Size: 123456789, Atime: 1, Mtime: 2, Ctime: 3,
		Flags: 9, Blocks: 88, Gen: 4,
	}
	for i := range d.DB {
		d.DB[i] = int32(1000 + i)
	}
	d.IB[0], d.IB[1] = 5000, 6000
	var buf [DinodeSize]byte
	d.MarshalInto(buf[:])
	got := UnmarshalDinode(buf[:])
	if got != d {
		t.Fatalf("dinode round trip:\n%+v\n%+v", d, got)
	}
}

func TestCGMarshalRoundTrip(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	cg := NewCG(r.sb, 3)
	cg.Nbfree = 42
	cg.Nffree = 7
	cg.Nifree = 500
	cg.Rotor = 96
	setBit(cg.Blksfree, 100)
	setBit(cg.Inosused, 5)
	got, err := UnmarshalCG(r.sb, cg.Marshal(r.sb))
	if err != nil {
		t.Fatal(err)
	}
	if got.CgHdr != cg.CgHdr {
		t.Fatalf("cg header round trip: %+v vs %+v", cg.CgHdr, got.CgHdr)
	}
	if !got.FragFree(100) || got.FragFree(101) {
		t.Fatal("blksfree bitmap lost")
	}
	if !got.InodeUsed(5) || got.InodeUsed(6) {
		t.Fatal("inosused bitmap lost")
	}
}

func TestCreateLookupFile(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, err := r.fs.Create(p, "/hello")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if !ip.D.IsReg() || ip.D.Nlink != 1 {
			t.Errorf("bad new inode %+v", ip.D)
		}
		got, err := r.fs.Namei(p, "/hello")
		if err != nil || got.Ino != ip.Ino {
			t.Errorf("namei: %v (ino %d vs %d)", err, got.Ino, ip.Ino)
		}
		if _, err := r.fs.Create(p, "/hello"); err != ErrExists {
			t.Errorf("duplicate create: %v, want ErrExists", err)
		}
		if _, err := r.fs.Namei(p, "/absent"); err != ErrNotFound {
			t.Errorf("missing lookup: %v, want ErrNotFound", err)
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestMkdirNested(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.fs.Mkdir(p, "/a"); err != nil {
			t.Errorf("mkdir /a: %v", err)
		}
		if _, err := r.fs.Mkdir(p, "/a/b"); err != nil {
			t.Errorf("mkdir /a/b: %v", err)
		}
		if _, err := r.fs.Create(p, "/a/b/f"); err != nil {
			t.Errorf("create: %v", err)
		}
		ip, err := r.fs.Namei(p, "/a/b/f")
		if err != nil || !ip.D.IsReg() {
			t.Errorf("namei /a/b/f: %v", err)
		}
		// Parent link counts: root has "." + /a's ".." = 3 with one subdir.
		root, _ := r.fs.Iget(p, RootIno)
		if root.D.Nlink != 3 {
			t.Errorf("root nlink = %d, want 3", root.D.Nlink)
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestRemoveFileFreesEverything(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	freeBefore := r.sb.CsNbfree
	r.run(t, func(p *sim.Proc) {
		ip, err := r.fs.Create(p, "/f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// Give it 20 blocks (into the indirect range).
		for lbn := int64(0); lbn < 20; lbn++ {
			if _, err := r.fs.BmapAlloc(p, ip, lbn, int(r.sb.Bsize)); err != nil {
				t.Errorf("alloc lbn %d: %v", lbn, err)
				return
			}
			ip.D.Size = (lbn + 1) * int64(r.sb.Bsize)
		}
		ip.MarkDirty()
		if err := r.fs.Remove(p, "/f"); err != nil {
			t.Errorf("remove: %v", err)
		}
		if _, err := r.fs.Namei(p, "/f"); err != ErrNotFound {
			t.Errorf("lookup after remove: %v", err)
		}
	})
	rep := r.fsck(t)
	if !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
	if r.sb.CsNbfree != freeBefore {
		t.Fatalf("blocks leaked: %d free, was %d", r.sb.CsNbfree, freeBefore)
	}
}

func TestRemoveDirRules(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		r.fs.Mkdir(p, "/d")
		r.fs.Create(p, "/d/f")
		if err := r.fs.Remove(p, "/d"); err != ErrNotEmpty {
			t.Errorf("remove non-empty dir: %v, want ErrNotEmpty", err)
		}
		if err := r.fs.Remove(p, "/d/f"); err != nil {
			t.Errorf("remove file: %v", err)
		}
		if err := r.fs.Remove(p, "/d"); err != nil {
			t.Errorf("remove empty dir: %v", err)
		}
		root, _ := r.fs.Iget(p, RootIno)
		if root.D.Nlink != 2 {
			t.Errorf("root nlink = %d after rmdir, want 2", root.D.Nlink)
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestManyFilesInDirectory(t *testing.T) {
	// Force directory growth past one block and exercise slot reuse.
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		names := make([]string, 0, 400)
		for i := 0; i < 400; i++ {
			name := "/file-with-a-longish-name-" + itoa(i)
			names = append(names, name)
			if _, err := r.fs.Create(p, name); err != nil {
				t.Errorf("create %d: %v", i, err)
				return
			}
		}
		root, _ := r.fs.Iget(p, RootIno)
		if root.D.Size <= int64(r.sb.Bsize) {
			t.Error("directory did not grow past one block")
		}
		// Remove every third, then re-create (slot reuse).
		for i := 0; i < 400; i += 3 {
			if err := r.fs.Remove(p, names[i]); err != nil {
				t.Errorf("remove %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 400; i += 3 {
			if _, err := r.fs.Create(p, names[i]); err != nil {
				t.Errorf("re-create %d: %v", i, err)
				return
			}
		}
		ents, err := r.fs.ReadDir(p, root)
		if err != nil {
			t.Errorf("readdir: %v", err)
		}
		if len(ents) != 402 { // 400 files + . + ..
			t.Errorf("readdir count = %d, want 402", len(ents))
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestContiguousAllocationWhenRotdelayZero(t *testing.T) {
	// rotdelay=0 (figure 5): successive blocks of a file are adjacent.
	r := newRig(t, MkfsOpts{Rotdelay: 0, Maxcontig: 7})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/f")
		var prev int32
		breaks := 0
		for lbn := int64(0); lbn < 64; lbn++ {
			fsbn, err := r.fs.BmapAlloc(p, ip, lbn, int(r.sb.Bsize))
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			ip.D.Size = (lbn + 1) * int64(r.sb.Bsize)
			if lbn > 0 && fsbn != prev+r.sb.Frag {
				breaks++
			}
			prev = fsbn
		}
		// One break is expected where the single-indirect pointer block
		// is allocated in line (after lbn 11); anything more means the
		// allocator failed to lay the file out contiguously.
		if breaks > 1 {
			t.Errorf("%d extent breaks in 64 blocks on an empty fs, want <= 1", breaks)
		}
	})
}

func TestInterleavedAllocationWhenRotdelaySet(t *testing.T) {
	// rotdelay=4ms (figure 4): one-block gaps between successive blocks.
	r := newRig(t, MkfsOpts{Rotdelay: 4, Maxcontig: 1})
	gap := r.sb.GapBlocks()
	if gap != 1 {
		t.Fatalf("gapBlocks = %d, want 1 for 4ms on this geometry", gap)
	}
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/f")
		var prev int32
		for lbn := int64(0); lbn < 32; lbn++ {
			fsbn, err := r.fs.BmapAlloc(p, ip, lbn, int(r.sb.Bsize))
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			ip.D.Size = (lbn + 1) * int64(r.sb.Bsize)
			if lbn > 0 && fsbn != prev+2*r.sb.Frag {
				t.Errorf("block %d at %d, want %d (one-block gap)", lbn, fsbn, prev+2*r.sb.Frag)
				return
			}
			prev = fsbn
		}
	})
}

func TestBmapReturnsContigLength(t *testing.T) {
	r := newRig(t, MkfsOpts{Rotdelay: 0, Maxcontig: 7})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/f")
		for lbn := int64(0); lbn < 32; lbn++ {
			if _, err := r.fs.BmapAlloc(p, ip, lbn, int(r.sb.Bsize)); err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			ip.D.Size = (lbn + 1) * int64(r.sb.Bsize)
		}
		fsbn, contig, err := r.fs.Bmap(p, ip, 0)
		if err != nil || fsbn == 0 {
			t.Errorf("bmap: %v", err)
		}
		if contig != 7 {
			t.Errorf("contig = %d, want maxcontig 7", contig)
		}
		// Near the end of the file the run is clipped.
		_, contig, _ = r.fs.Bmap(p, ip, 30)
		if contig != 2 {
			t.Errorf("contig at lbn 30 = %d, want 2 (file ends)", contig)
		}
	})
}

func TestBmapContigStopsAtGap(t *testing.T) {
	// With rotdelay placement every block is its own extent: bmap must
	// report runs of exactly 1 ("an old file system will always send
	// back a cluster of one block").
	r := newRig(t, MkfsOpts{Rotdelay: 4, Maxcontig: 7})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/f")
		for lbn := int64(0); lbn < 16; lbn++ {
			r.fs.BmapAlloc(p, ip, lbn, int(r.sb.Bsize))
			ip.D.Size = (lbn + 1) * int64(r.sb.Bsize)
		}
		for lbn := int64(0); lbn < 15; lbn++ {
			_, contig, _ := r.fs.Bmap(p, ip, lbn)
			if contig != 1 {
				t.Errorf("lbn %d contig = %d, want 1", lbn, contig)
				return
			}
		}
	})
}

func TestBmapHole(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/sparse")
		// Allocate only block 5.
		r.fs.BmapAlloc(p, ip, 5, int(r.sb.Bsize))
		ip.D.Size = 6 * int64(r.sb.Bsize)
		ip.MarkDirty()
		fsbn, _, err := r.fs.Bmap(p, ip, 2)
		if err != nil || fsbn != 0 {
			t.Errorf("hole bmap = %d, %v; want 0", fsbn, err)
		}
		fsbn, _, _ = r.fs.Bmap(p, ip, 5)
		if fsbn == 0 {
			t.Error("allocated block reads as hole")
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestIndirectBlocks(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	nindir := r.sb.NindirPerBlock()
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/big")
		// One block in each range: direct, single indirect, double.
		lbns := []int64{0, NDADDR, NDADDR + 5, NDADDR + nindir, NDADDR + nindir + nindir + 3}
		for _, lbn := range lbns {
			if _, err := r.fs.BmapAlloc(p, ip, lbn, int(r.sb.Bsize)); err != nil {
				t.Errorf("alloc lbn %d: %v", lbn, err)
				return
			}
			if end := (lbn + 1) * int64(r.sb.Bsize); end > ip.D.Size {
				ip.D.Size = end
			}
		}
		ip.MarkDirty()
		for _, lbn := range lbns {
			fsbn, _, err := r.fs.Bmap(p, ip, lbn)
			if err != nil || fsbn == 0 {
				t.Errorf("bmap lbn %d: fsbn %d err %v", lbn, fsbn, err)
			}
		}
		if ip.D.IB[0] == 0 || ip.D.IB[1] == 0 {
			t.Error("indirect blocks not allocated")
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestFragmentTailAllocation(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/small")
		// A 3000-byte file needs 3 fragments.
		fsbn, err := r.fs.BmapAlloc(p, ip, 0, 3000)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		ip.D.Size = 3000
		ip.MarkDirty()
		if ip.D.Blocks != 3 {
			t.Errorf("blocks = %d, want 3 fragments", ip.D.Blocks)
		}
		_ = fsbn
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestFragmentTailGrowsInPlace(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/grow")
		a, _ := r.fs.BmapAlloc(p, ip, 0, 1024)
		ip.D.Size = 1024
		b, err := r.fs.BmapAlloc(p, ip, 0, 4096)
		if err != nil {
			t.Errorf("grow: %v", err)
			return
		}
		ip.D.Size = 4096
		ip.MarkDirty()
		if a != b {
			t.Errorf("tail moved from %d to %d despite free space", a, b)
		}
		if ip.D.Blocks != 4 {
			t.Errorf("blocks = %d, want 4", ip.D.Blocks)
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestFragmentTailRelocatesWhenBlocked(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/a")
		a, _ := r.fs.BmapAlloc(p, ip, 0, 1024)
		ip.D.Size = 1024
		ip.MarkDirty()
		// A second file grabs the rest of that block's fragments.
		ip2, _ := r.fs.Create(p, "/b")
		b, err := r.fs.AllocFrags(p, ip2, a, 7)
		if err != nil || b != a+1 {
			t.Errorf("neighbour frags at %d (err %v), want %d", b, err, a+1)
			return
		}
		ip2.D.DB[0] = b
		ip2.D.Size = 7 * 1024
		ip2.MarkDirty()
		// Growing /a's tail must now relocate it.
		c, err := r.fs.BmapAlloc(p, ip, 0, 3000)
		if err != nil {
			t.Errorf("grow: %v", err)
			return
		}
		ip.D.Size = 3000
		ip.MarkDirty()
		if c == a {
			t.Error("tail did not relocate out of a blocked fragment run")
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestTruncatePartial(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/t")
		for lbn := int64(0); lbn < 30; lbn++ {
			r.fs.BmapAlloc(p, ip, lbn, int(r.sb.Bsize))
			ip.D.Size = (lbn + 1) * int64(r.sb.Bsize)
		}
		ip.MarkDirty()
		if err := r.fs.Truncate(p, ip, 5*int64(r.sb.Bsize)); err != nil {
			t.Errorf("truncate: %v", err)
		}
		if ip.D.Size != 5*int64(r.sb.Bsize) {
			t.Errorf("size = %d", ip.D.Size)
		}
		fsbn, _, _ := r.fs.Bmap(p, ip, 10)
		if fsbn != 0 {
			t.Error("truncated block still mapped")
		}
		if ip.D.IB[0] != 0 {
			t.Error("indirect block survived truncate below direct range")
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestMinfreeReserveEnforced(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/hog")
		var lbn int64
		for {
			_, err := r.fs.BmapAlloc(p, ip, lbn, int(r.sb.Bsize))
			if err == ErrNoSpace {
				break
			}
			if err != nil {
				t.Errorf("alloc: %v", err)
				return
			}
			ip.D.Size = (lbn + 1) * int64(r.sb.Bsize)
			lbn++
		}
		free := float64(r.fs.freeFragsTotal()) / float64(r.sb.Dsize)
		if free < 0.08 || free > 0.13 {
			t.Errorf("free fraction at ENOSPC = %.3f, want ~0.10 (minfree)", free)
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestIAllocExhaustion(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		seen := make(map[int32]bool)
		for {
			ino, err := r.fs.IAlloc(p, nil, false)
			if err == ErrNoInodes {
				break
			}
			if err != nil {
				t.Errorf("ialloc: %v", err)
				return
			}
			if seen[ino] {
				t.Errorf("inode %d allocated twice", ino)
				return
			}
			seen[ino] = true
		}
		want := int(r.sb.Ncg*r.sb.Ipg) - 3 // minus 0, 1, root
		if len(seen) != want {
			t.Errorf("allocated %d inodes, want %d", len(seen), want)
		}
	})
}

func TestSyncSurvivesRemount(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/persist")
		r.fs.BmapAlloc(p, ip, 0, int(r.sb.Bsize))
		ip.D.Size = int64(r.sb.Bsize)
		ip.MarkDirty()
		r.fs.Sync(p)
	})
	// Remount from the image and look the file up.
	s2 := sim.New(2)
	t.Cleanup(s2.Close)
	p2 := disk.DefaultParams()
	p2.Geom = smallGeom()
	d2 := disk.New(s2, "d0", p2)
	// Copy the image across by reading/writing sectors.
	buf := make([]byte, 64*512)
	for sec := int64(0); sec < r.d.Geom().TotalSectors(); sec += 64 {
		r.d.ReadImage(sec, buf)
		d2.WriteImage(sec, buf)
	}
	dr2 := driver.New(s2, d2, nil, driver.DefaultConfig())
	fs2, err := Mount(s2, nil, dr2, MountOpts{})
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	s2.Spawn("check", func(p *sim.Proc) {
		ip, err := fs2.Namei(p, "/persist")
		if err != nil {
			t.Errorf("namei after remount: %v", err)
			return
		}
		if ip.D.Size != int64(fs2.SB.Bsize) {
			t.Errorf("size after remount = %d", ip.D.Size)
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGapBlocksComputation(t *testing.T) {
	r := newRig(t, MkfsOpts{Rotdelay: 4})
	if g := r.sb.GapBlocks(); g != 1 {
		t.Errorf("4ms gap = %d blocks, want 1", g)
	}
	r.sb.Rotdelay = 0
	if g := r.sb.GapBlocks(); g != 0 {
		t.Errorf("0ms gap = %d, want 0", g)
	}
	r.sb.Rotdelay = 9
	if g := r.sb.GapBlocks(); g != 3 {
		t.Errorf("9ms gap = %d blocks, want 3", g)
	}
}

func TestBlkSize(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	sb := r.sb
	cases := []struct {
		size int64
		lbn  int64
		want int
	}{
		{16384, 0, 8192},
		{16384, 1, 8192},
		{9000, 1, 1024},  // 808 bytes -> 1 frag
		{12000, 1, 4096}, // 3808 bytes -> 4 frags
		{8192, 0, 8192},
		{100, 0, 1024},
	}
	for _, c := range cases {
		if got := sb.BlkSize(c.size, c.lbn); got != c.want {
			t.Errorf("BlkSize(%d, %d) = %d, want %d", c.size, c.lbn, got, c.want)
		}
	}
}

func TestFsckDetectsCorruption(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/f")
		r.fs.BmapAlloc(p, ip, 0, int(r.sb.Bsize))
		ip.D.Size = int64(r.sb.Bsize)
		ip.MarkDirty()
	})
	r.fs.SyncImage()
	// Corrupt: point the file's first block into metadata.
	blk := make([]byte, r.sb.Bsize)
	fsba := r.sb.InoToFsba(RootIno + 1)
	r.d.ReadImage(r.sb.FsbToDb(fsba), blk)
	// Find the file inode (first non-reserved allocated after root).
	var target int32 = -1
	for ino := int32(RootIno + 1); ino < r.sb.Ipg; ino++ {
		di := UnmarshalDinode(blk[r.sb.InoBlockOff(ino) : r.sb.InoBlockOff(ino)+DinodeSize])
		if di.Allocated() {
			target = ino
			di.DB[0] = r.sb.CgHeader(0) // metadata!
			di.MarshalInto(blk[r.sb.InoBlockOff(ino) : r.sb.InoBlockOff(ino)+DinodeSize])
			break
		}
	}
	if target < 0 {
		t.Fatal("could not find test inode")
	}
	r.d.WriteImage(r.sb.FsbToDb(fsba), blk)
	rep, err := Fsck(r.d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck missed a block pointer into metadata")
	}
}

func TestBufferCacheHitAvoidsIO(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		b, _ := r.fs.BC.Bread(p, r.sb.CgHeader(1))
		r.fs.BC.Brelse(b)
		miss := r.fs.BC.Misses
		b, _ = r.fs.BC.Bread(p, r.sb.CgHeader(1))
		r.fs.BC.Brelse(b)
		if r.fs.BC.Misses != miss {
			t.Error("second bread missed")
		}
		if r.fs.BC.Hits == 0 {
			t.Error("no hits recorded")
		}
	})
}

func TestBufferCacheEvictsLRUAndWritesDirty(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	// Tiny cache to force eviction.
	r.fs.BC = NewBcache(r.s, nil, r.dr, r.sb, 4)
	r.run(t, func(p *sim.Proc) {
		b, _ := r.fs.BC.Bread(p, r.sb.CgHeader(0))
		b.Data[100] = 99
		r.fs.BC.Bdwrite(b)
		// Touch enough other blocks to evict it.
		for cg := int32(1); cg <= 4; cg++ {
			bb, _ := r.fs.BC.Bread(p, r.sb.CgHeader(cg))
			r.fs.BC.Brelse(bb)
		}
		if r.fs.BC.Evictions == 0 {
			t.Error("nothing evicted from a 4-buffer cache")
		}
		// The dirty data must have reached the image.
		blk := make([]byte, r.sb.Bsize)
		r.d.ReadImage(r.sb.FsbToDb(r.sb.CgHeader(0)), blk)
		if blk[100] != 99 {
			t.Error("evicted dirty buffer lost its data")
		}
	})
}

func TestFsckDetectsDuplicateClaims(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		a, _ := r.fs.Create(p, "/a")
		r.fs.BmapAlloc(p, a, 0, int(r.sb.Bsize))
		a.D.Size = int64(r.sb.Bsize)
		a.MarkDirty()
		b, _ := r.fs.Create(p, "/b")
		// Corrupt: /b points at /a's block.
		b.D.DB[0] = a.D.DB[0]
		b.D.Size = int64(r.sb.Bsize)
		b.D.Blocks = r.sb.Frag
		b.MarkDirty()
	})
	r.fs.SyncImage()
	rep, err := Fsck(r.d)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "multiply claimed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck missed a duplicate block claim: %v", rep.Problems)
	}
}

func TestFsckDetectsBadLinkCount(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/f")
		ip.D.Nlink = 5 // lie
		ip.MarkDirty()
	})
	r.fs.SyncImage()
	rep, err := Fsck(r.d)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, "link count") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck missed a bad link count: %v", rep.Problems)
	}
}

func TestFsckDetectsOrphanDirectory(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		dip, _ := r.fs.Mkdir(p, "/d")
		// Corrupt: remove the name but keep the inode allocated.
		if _, err := r.fs.DirRemove(p, mustIget(t, r, p, RootIno), "d"); err != nil {
			t.Errorf("dirremove: %v", err)
		}
		_ = dip
	})
	r.fs.SyncImage()
	rep, err := Fsck(r.d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck missed an orphan directory")
	}
}

func mustIget(t *testing.T, r *testRig, p *sim.Proc, ino int32) *Inode {
	t.Helper()
	ip, err := r.fs.Iget(p, ino)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

func TestFsckDetectsCorruptDirent(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		r.fs.Create(p, "/x")
	})
	r.fs.SyncImage()
	// Smash the root directory block's reclen.
	root := r.sb.CgDmin(0)
	blk := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(root), blk)
	blk[4], blk[5] = 3, 0 // reclen 3: not 4-aligned, below minimum
	r.d.WriteImage(r.sb.FsbToDb(root), blk)
	rep, err := Fsck(r.d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("fsck missed a corrupt directory entry")
	}
}
