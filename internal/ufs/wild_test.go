package ufs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
)

// buildRangesImage populates r with /big (blocks in the direct, single-
// and double-indirect ranges) and /d/e/f (a two-level directory holding
// a one-block file), spills everything to the image and returns the
// inode numbers of /big and /d.
func buildRangesImage(t testing.TB, r *testRig) (big, dir int32) {
	t.Helper()
	bsize := int64(r.sb.Bsize)
	r.s.Spawn("build", func(p *sim.Proc) {
		fail := func(what string, err error) bool {
			if err != nil {
				t.Errorf("%s: %v", what, err)
			}
			return err != nil
		}
		ip, err := r.fs.Create(p, "/big")
		if fail("create /big", err) {
			return
		}
		big = ip.Ino
		l2 := NDADDR + r.sb.NindirPerBlock()
		for _, lbn := range []int64{0, 1, 11, 12, 13, 19, l2 - 1, l2, l2 + 1, l2 + 3*r.sb.NindirPerBlock()} {
			if _, err := r.fs.BmapAlloc(p, ip, lbn, int(bsize)); fail("alloc", err) {
				return
			}
			ip.D.Size = (lbn + 1) * bsize
			ip.MarkDirty()
		}
		r.fs.Iput(p, ip)
		dip, err := r.fs.Mkdir(p, "/d")
		if fail("mkdir /d", err) {
			return
		}
		dir = dip.Ino
		r.fs.Iput(p, dip)
		eip, err := r.fs.Mkdir(p, "/d/e")
		if fail("mkdir /d/e", err) {
			return
		}
		r.fs.Iput(p, eip)
		fip, err := r.fs.Create(p, "/d/e/f")
		if fail("create /d/e/f", err) {
			return
		}
		if _, err := r.fs.BmapAlloc(p, fip, 0, 3000); fail("alloc", err) {
			return
		}
		fip.D.Size = 3000
		fip.MarkDirty()
		r.fs.Iput(p, fip)
	})
	if err := r.s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	r.fs.SyncImage()
	return big, dir
}

// TestFsckSurvivesWildPointers: a pointer the image got wrong — at any
// level of the tree, on any device shape — must come back as a problem
// naming its inode, never as a panic from reading the address, and
// Repair must leave an image Fsck passes.
func TestFsckSurvivesWildPointers(t *testing.T) {
	devices := []struct {
		name string
		vc   *vol.Config
	}{
		{"bare", nil},
		{"concat2", &vol.Config{Level: vol.Concat, Members: 2}},
		{"raid0x2", &vol.Config{Level: vol.RAID0, Members: 2}},
	}
	wild := []struct {
		name  string
		addr  func(sb *Superblock) int32
		class Class
	}{
		{"negative", func(*Superblock) int32 { return -8 }, ClassRange},
		{"pastDevice", func(*Superblock) int32 { return 0x7fffff00 }, ClassRange},
		{"inMetadata", func(sb *Superblock) int32 { return sb.CgHeader(0) }, ClassMetadata},
	}
	// Each victim plants addr in one pointer and returns the inode it
	// belongs to.
	victims := []struct {
		name  string
		plant func(r *testRig, big, dir, addr int32) int32
	}{
		{"IB0", func(r *testRig, big, _, addr int32) int32 {
			di := r.readDinode(big)
			di.IB[0] = addr
			r.writeDinode(big, di)
			return big
		}},
		{"IB1", func(r *testRig, big, _, addr int32) int32 {
			di := r.readDinode(big)
			di.IB[1] = addr
			r.writeDinode(big, di)
			return big
		}},
		{"level2", func(r *testRig, big, _, addr int32) int32 {
			ib1 := r.readDinode(big).IB[1]
			blk := make([]byte, r.sb.Bsize)
			r.d.ReadImage(r.sb.FsbToDb(ib1), blk)
			putIndir(blk, 0, addr)
			r.d.WriteImage(r.sb.FsbToDb(ib1), blk)
			return big
		}},
		{"dirDB0", func(r *testRig, _, dir, addr int32) int32 {
			di := r.readDinode(dir)
			di.DB[0] = addr
			r.writeDinode(dir, di)
			return dir
		}},
	}
	for _, dev := range devices {
		for _, v := range victims {
			for _, w := range wild {
				dev, v, w := dev, v, w
				t.Run(dev.name+"/"+v.name+"/"+w.name, func(t *testing.T) {
					r := newRigOn(t, dev.vc, MkfsOpts{Ipg: 64})
					big, dir := buildRangesImage(t, r)
					if rep, err := Fsck(r.d); err != nil || !rep.Clean() {
						t.Fatalf("image not clean before the corruption: %v %v", err, rep)
					}
					ino := v.plant(r, big, dir, w.addr(r.sb))

					rep, err := Fsck(r.d)
					if err != nil {
						t.Fatalf("fsck: %v", err)
					}
					want := fmt.Sprintf("ino %d:", ino)
					if !slices.ContainsFunc(rep.Problems, func(f Finding) bool {
						return f.Class == w.class && strings.Contains(f.String(), want)
					}) {
						t.Errorf("no %s finding names %q: %v", w.class, want, rep.Problems)
					}
					if rr := r.repair(t); !rr.Clean() {
						t.Fatalf("not clean after repair: %v", rr.Check.Problems)
					}
					if rep, err := Fsck(r.d); err != nil || !rep.Clean() {
						t.Fatalf("fsck after repair: %v %v", err, rep)
					}
				})
			}
		}
	}
}
