package ufs

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
)

// TestBlockMapDescentPinned pins what the block-map walkers cost and
// return on a file that reaches every pointer level: one sparse file
// with a block at each range boundary (and its neighbours, so runs
// cross from the dinode into IB[0], from IB[0] into IB[1], and from one
// level-2 block into the next), written, translated, fsynced and
// truncated back through each range. A second small file exercises the
// fragment rules (tail grow, tail shrink). The machine has a CPU model,
// so every cpu.BmapInstr charge moves the clock, and a 4-buffer metadata
// cache, so the order of Bread/Brelse/Bdwrite decides hits, misses and
// device I/O.
//
// The constants were captured at the commit before the walkers were
// rebuilt on ptrPath; a refactor of bmap, balloc, truncate or fsync
// must reproduce them exactly. The truncate line moved once, when
// freeing a whole block began to drop its metadata buffer: the two
// indirect blocks truncate dirties and then frees are no longer written
// back (15 → 13 device writes, and the clock with them). It moved again
// when truncate began to free the pointer blocks below IB[1] that lie
// wholly past the new end (eachIndir): four more cache hits on IB[1],
// and one fewer write, of a pointer block now freed before it is
// written back (13 → 12). Every line gained one cache hit per
// indirect-range data-block allocation (+11) when BmapAlloc began to
// release the pointer block across prevAddr and AllocBlock and re-read
// it to store the address. The truncate line was then re-pinned when
// truncate stopped calling Bmap on every logical block past the new end
// and began to walk the pointers that exist, last entry first: 77,844
// bmap calls became 13 (the direct slots), 7.2 s of virtual time 78 ms,
// and one cache miss a hit.
func TestBlockMapDescentPinned(t *testing.T) {
	for _, tc := range []struct {
		maxcontig int
		want      [4]string // after write, bmap, fsync, truncate
	}{
		{1, [4]string{
			"clock=233982734 bmap=6 alloc=20 hits=65 misses=5 writes=8 dreads=5 dwrites=8 maps=cbf29ce484222325",
			"clock=336394970 bmap=50 alloc=20 hits=114 misses=10 writes=10 dreads=10 dwrites=10 maps=ae1901ab80530be5",
			"clock=383332352 bmap=50 alloc=20 hits=116 misses=11 writes=12 dreads=11 dwrites=12 maps=ae1901ab80530be5",
			"clock=461607146 bmap=63 alloc=20 hits=152 misses=15 writes=12 dreads=15 dwrites=12 maps=ae1901ab80530be5",
		}},
		{15, [4]string{
			"clock=233982734 bmap=6 alloc=20 hits=65 misses=5 writes=8 dreads=5 dwrites=8 maps=cbf29ce484222325",
			"clock=336394970 bmap=50 alloc=20 hits=114 misses=10 writes=10 dreads=10 dwrites=10 maps=8c2ac476fa9e1168",
			"clock=383332352 bmap=50 alloc=20 hits=116 misses=11 writes=12 dreads=11 dwrites=12 maps=8c2ac476fa9e1168",
			"clock=461607146 bmap=63 alloc=20 hits=152 misses=15 writes=12 dreads=15 dwrites=12 maps=8c2ac476fa9e1168",
		}},
	} {
		tc := tc
		t.Run(fmt.Sprintf("maxcontig=%d", tc.maxcontig), func(t *testing.T) {
			s := sim.New(1)
			t.Cleanup(s.Close)
			dp := disk.DefaultParams()
			dp.Geom = smallGeom()
			d := disk.New(s, "d0", dp)
			if _, err := Mkfs(d, MkfsOpts{Maxcontig: tc.maxcontig}); err != nil {
				t.Fatalf("mkfs: %v", err)
			}
			cm := cpu.New(s, 12)
			dr := driver.New(s, d, cm, driver.DefaultConfig())
			fs, err := Mount(s, cm, dr, MountOpts{})
			if err != nil {
				t.Fatalf("mount: %v", err)
			}
			fs.BC.nbuf = 4
			sb := fs.SB
			bsize := int64(sb.Bsize)
			nindir := sb.NindirPerBlock()
			l1, l2 := int64(NDADDR), NDADDR+nindir // first single-, first double-indirect lbn
			deep := l2 + 37*nindir + 5
			lbns := []int64{
				0, 1, 10, 11, l1, l1 + 1,
				l2 - 2, l2 - 1, l2, l2 + 1,
				l2 + nindir - 1, l2 + nindir, l2 + nindir + 1,
				deep, deep + 1,
			}

			maps := fnv.New64a()
			var got [4]string
			snap := func(phase int) {
				got[phase] = fmt.Sprintf("clock=%d bmap=%d alloc=%d hits=%d misses=%d writes=%d dreads=%d dwrites=%d maps=%x",
					int64(s.Now()), fs.BmapCalls, fs.AllocCalls, fs.BC.Hits, fs.BC.Misses, fs.BC.Writes,
					d.Stats.Reads, d.Stats.Writes, maps.Sum64())
			}
			fail := func(what string, err error) bool {
				if err != nil {
					t.Errorf("%s: %v", what, err)
				}
				return err != nil
			}

			s.Spawn("pin", func(p *sim.Proc) {
				// Write.
				ip, err := fs.Create(p, "/sparse")
				if fail("create", err) {
					return
				}
				for _, lbn := range lbns {
					if _, err := fs.BmapAlloc(p, ip, lbn, int(bsize)); fail(fmt.Sprintf("alloc lbn %d", lbn), err) {
						return
					}
					ip.D.Size = (lbn + 1) * bsize
					ip.MarkDirty()
				}
				tail, err := fs.Create(p, "/tail")
				if fail("create", err) {
					return
				}
				for _, w := range []struct {
					lbn  int64
					size int
				}{{0, 3000}, {0, 8192}, {1, 2000}} {
					if _, err := fs.BmapAlloc(p, tail, w.lbn, w.size); fail("alloc tail", err) {
						return
					}
					tail.D.Size = w.lbn*bsize + int64(w.size)
					tail.MarkDirty()
				}
				snap(0)

				// Bmap of every block and its neighbours.
				for _, lbn := range lbns {
					for _, l := range []int64{lbn - 1, lbn, lbn + 1} {
						if l < 0 {
							continue
						}
						fsbn, run, err := fs.Bmap(p, ip, l)
						if fail(fmt.Sprintf("bmap lbn %d", l), err) {
							return
						}
						fmt.Fprintf(maps, "%d:%d+%d;", l, fsbn, run)
					}
				}
				snap(1)

				// Fsync.
				if fail("fsync", fs.SyncInode(p, ip)) || fail("fsync tail", fs.SyncInode(p, tail)) {
					return
				}
				snap(2)

				// Truncate back through each range.
				for _, size := range []int64{
					(deep + 1) * bsize,
					(l2 + nindir + 1) * bsize,
					(l2 + nindir) * bsize,
					l2*bsize + 100,
					l2 * bsize,
					(l2 - 1) * bsize,
					(l1 + 1) * bsize,
					l1 * bsize,
					10*bsize + 3000,
					0,
				} {
					if fail(fmt.Sprintf("truncate to %d", size), fs.Truncate(p, ip, size)) {
						return
					}
				}
				for _, size := range []int64{bsize + 500, 100} {
					if fail(fmt.Sprintf("truncate tail to %d", size), fs.Truncate(p, tail, size)) {
						return
					}
				}
				fs.Iput(p, ip)
				fs.Iput(p, tail)
				snap(3)
			})
			if err := s.Run(); err != nil {
				t.Fatalf("sim: %v", err)
			}
			for i, phase := range []string{"write", "bmap", "fsync", "truncate"} {
				if got[i] != tc.want[i] {
					t.Errorf("after %s:\n got  %s\n want %s", phase, got[i], tc.want[i])
				}
			}
			fs.SyncImage()
			rep, err := Fsck(d)
			if err != nil {
				t.Fatalf("fsck: %v", err)
			}
			if !rep.Clean() {
				t.Fatalf("fsck: %v", rep.Problems)
			}
		})
	}
}
