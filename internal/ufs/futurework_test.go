package ufs

import (
	"fmt"
	"strings"
	"testing"

	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
)

func newRigOpts(t *testing.T, mkfs MkfsOpts, mo MountOpts) *testRig {
	t.Helper()
	r := newRig(t, mkfs)
	fs, err := Mount(r.s, nil, r.dr, mo)
	if err != nil {
		t.Fatal(err)
	}
	r.fs = fs
	r.sb = fs.SB
	return r
}

func TestOrderedWritesReplaceSyncMeta(t *testing.T) {
	r := newRigOpts(t, MkfsOpts{}, MountOpts{OrderedWrites: true})
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, err := r.fs.Create(p, fmt.Sprintf("/f%d", i)); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
	})
	if r.fs.SyncMetaWrites != 0 {
		t.Errorf("sync metadata writes = %d with B_ORDER enabled", r.fs.SyncMetaWrites)
	}
	if r.fs.OrderedMetaWrites < 5 {
		t.Errorf("ordered metadata writes = %d, want >= 5", r.fs.OrderedMetaWrites)
	}
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck after ordered-write workload: %v", rep.Problems)
	}
}

func TestOrderedWritesFasterRmStar(t *testing.T) {
	// Further Work, B_ORDER: "If the I/O were flushed to disk ... the
	// file system would be able to do many operations asynchronously.
	// The performance of commands like rm * would improve
	// substantially."
	const nfiles = 60
	workload := func(mo MountOpts) sim.Time {
		r := newRigOpts(t, MkfsOpts{}, mo)
		var elapsed sim.Time
		r.run(t, func(p *sim.Proc) {
			for i := 0; i < nfiles; i++ {
				ip, err := r.fs.Create(p, fmt.Sprintf("/f%d", i))
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if _, err := r.fs.BmapAlloc(p, ip, 0, int(r.sb.Bsize)); err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				ip.D.Size = int64(r.sb.Bsize)
				ip.MarkDirty()
			}
			t0 := p.Now()
			// rm *
			for i := 0; i < nfiles; i++ {
				if err := r.fs.Remove(p, fmt.Sprintf("/f%d", i)); err != nil {
					t.Errorf("remove: %v", err)
					return
				}
			}
			elapsed = p.Now() - t0
		})
		if rep := r.fsck(t); !rep.Clean() {
			t.Fatalf("fsck: %v", rep.Problems)
		}
		return elapsed
	}
	syncTime := workload(MountOpts{})
	orderedTime := workload(MountOpts{OrderedWrites: true})
	t.Logf("rm * of %d files: sync %v, ordered %v", nfiles, syncTime, orderedTime)
	// "The performance of commands like rm * would improve
	// substantially": the user-visible latency must at least halve.
	// (With no CPU model attached it collapses to the queueing cost.)
	if orderedTime > syncTime/2 {
		t.Errorf("rm * with B_ORDER = %v, want < half of synchronous %v", orderedTime, syncTime)
	}
}

func TestOrderedWritesKeepDriverOrder(t *testing.T) {
	// The ordered metadata writes must reach the drive in issue order
	// even when disksort would prefer otherwise.
	r := newRigOpts(t, MkfsOpts{}, MountOpts{OrderedWrites: true})
	var completions []int64
	r.run(t, func(p *sim.Proc) {
		// Hold the drive busy, then issue ordered writes at descending
		// addresses (disksort would reverse them).
		busy := &driver.Buf{Blkno: 40000, Data: make([]byte, 512)}
		r.dr.Strategy(p, busy)
		for i := 3; i >= 1; i-- {
			blk := int64(i * 10000)
			r.dr.Strategy(p, &driver.Buf{
				Blkno: blk, Data: make([]byte, 512), Write: true, Order: true,
				Iodone: func(b *driver.Buf) { completions = append(completions, b.Blkno) },
			})
		}
		p.Sleep(2 * sim.Second)
	})
	want := []int64{30000, 20000, 10000}
	if len(completions) != 3 {
		t.Fatalf("completions = %v", completions)
	}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("ordered writes completed as %v, want %v", completions, want)
		}
	}
}

// TestBmapCacheConsistencyUnderGrowth holds the bmap cache to its
// contract: a hit returns the (fsbn, run) a fresh bmap of the same block
// returns. Each check first queries every block, last first, with the
// cache the last step left, then warms the cache at each block in turn and queries
// every later one, two blocks past the end of the file included. The
// file crosses the direct → IB[0] boundary, a second file grown
// alternately breaks its layout, and a truncate shrinks it into the
// direct range before it grows again.
func TestBmapCacheConsistencyUnderGrowth(t *testing.T) {
	r := newRigOpts(t, MkfsOpts{Rotdelay: 0, Maxcontig: 15}, MountOpts{BmapCache: true})
	bsize := int64(r.sb.Bsize)
	r.run(t, func(p *sim.Proc) {
		grow := func(ip *Inode, lbn int64) bool {
			if _, err := r.fs.BmapAlloc(p, ip, lbn, int(bsize)); err != nil {
				t.Errorf("alloc: %v", err)
				return false
			}
			ip.D.Size = (lbn + 1) * bsize
			r.fs.Bmap(p, ip, lbn) // keep the cache hot during growth
			return true
		}
		// same compares one cached query of lbn with a fresh bmap.
		same := func(step string, ip *Inode, warm, lbn int64) bool {
			fsbn, run, err := r.fs.Bmap(p, ip, lbn)
			r.fs.BmapCache = false
			wantFsbn, wantRun, wantErr := r.fs.Bmap(p, ip, lbn)
			r.fs.BmapCache = true
			if fsbn != wantFsbn || run != wantRun || (err == nil) != (wantErr == nil) {
				t.Errorf("%s, warm at %d, lbn %d: cached (%d,%d,%v), fresh (%d,%d,%v)",
					step, warm, lbn, fsbn, run, err, wantFsbn, wantRun, wantErr)
				return false
			}
			return true
		}
		check := func(step string, ip *Inode) bool {
			end := (ip.D.Size+bsize-1)/bsize + 2
			for lbn := end - 1; lbn >= 0; lbn-- {
				if !same(step, ip, -1, lbn) {
					return false
				}
			}
			for warm := int64(0); warm < end; warm++ {
				ip.InvalidateBmapCache()
				r.fs.Bmap(p, ip, warm)
				for lbn := warm; lbn < end; lbn++ {
					if !same(step, ip, warm, lbn) {
						return false
					}
				}
			}
			return true
		}
		a, _ := r.fs.Create(p, "/a")
		for lbn := int64(0); lbn < 60; lbn++ {
			if !grow(a, lbn) {
				return
			}
		}
		if !check("grown to 60 blocks", a) {
			return
		}
		b, _ := r.fs.Create(p, "/b")
		for lbn := int64(60); lbn < 90; lbn++ {
			if !grow(a, lbn) || !grow(b, lbn-60) {
				return
			}
		}
		if !check("grown beside /b", a) || !check("/b", b) {
			return
		}
		r.fs.Bmap(p, a, 5)
		if err := r.fs.Truncate(p, a, 5*bsize+1000); err != nil {
			t.Errorf("truncate: %v", err)
			return
		}
		if !check("truncated to 5 blocks and a tail", a) {
			return
		}
		for lbn := int64(5); lbn < 30; lbn++ {
			if !grow(a, lbn) {
				return
			}
		}
		if !check("regrown to 30 blocks", a) {
			return
		}
	})
	if r.fs.BmapCacheHits == 0 {
		t.Error("no query hit the cache")
	}
}

// --- Symlinks (the precedent the paper cites for data-in-inode) -------------

func TestFastSymlink(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, err := r.fs.Create(p, "/realfile")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		_ = ip
		if err := r.fs.Symlink(p, "/link", "/realfile"); err != nil {
			t.Errorf("symlink: %v", err)
			return
		}
		// Readlink serves from the inode: no buffer-cache reads needed
		// beyond the inode block itself.
		lip, err := r.fs.Iget(p, mustLookup(t, r, p, "/link"))
		if err != nil {
			t.Errorf("iget: %v", err)
			return
		}
		target, err := r.fs.Readlink(lip)
		if err != nil || target != "/realfile" {
			t.Errorf("readlink = %q, %v", target, err)
		}
		if lip.D.Blocks != 0 {
			t.Errorf("fast symlink holds %d fragments", lip.D.Blocks)
		}
		// Namei follows it.
		got, err := r.fs.Namei(p, "/link")
		if err != nil || !got.D.IsReg() {
			t.Errorf("namei through link: %v", err)
		}
		// Loops are bounded.
		r.fs.Symlink(p, "/loopA", "/loopB")
		r.fs.Symlink(p, "/loopB", "/loopA")
		if _, err := r.fs.Namei(p, "/loopA"); err == nil {
			t.Error("symlink loop resolved")
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

// mustLookup returns the inode number for a direct (non-followed) name.
func mustLookup(t *testing.T, r *testRig, p *sim.Proc, path string) int32 {
	t.Helper()
	root, err := r.fs.Iget(p, RootIno)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := r.fs.DirLookup(p, root, path[1:])
	if err != nil {
		t.Fatal(err)
	}
	return ino
}

func TestSymlinkTargetTooLong(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		long := "/" + strings.Repeat("x", MaxFastLink)
		if err := r.fs.Symlink(p, "/l", long); err == nil {
			t.Error("oversized symlink target accepted")
		}
	})
}

// --- Rename ------------------------------------------------------------------

func TestRenameBasic(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		ip, _ := r.fs.Create(p, "/old")
		r.fs.BmapAlloc(p, ip, 0, 1024)
		ip.D.Size = 1024
		ip.MarkDirty()
		if err := r.fs.Rename(p, "/old", "/new"); err != nil {
			t.Errorf("rename: %v", err)
			return
		}
		if _, err := r.fs.Namei(p, "/old"); err != ErrNotFound {
			t.Errorf("old name survives: %v", err)
		}
		got, err := r.fs.Namei(p, "/new")
		if err != nil || got.Ino != ip.Ino {
			t.Errorf("new name: %v", err)
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}

func TestRenameAcrossDirectoriesReplacingTarget(t *testing.T) {
	r := newRig(t, MkfsOpts{})
	r.run(t, func(p *sim.Proc) {
		r.fs.Mkdir(p, "/a")
		r.fs.Mkdir(p, "/b")
		src, _ := r.fs.Create(p, "/a/f")
		victim, _ := r.fs.Create(p, "/b/f")
		r.fs.BmapAlloc(p, victim, 0, int(r.sb.Bsize))
		victim.D.Size = int64(r.sb.Bsize)
		victim.MarkDirty()
		free0 := r.sb.CsNbfree
		if err := r.fs.Rename(p, "/a/f", "/b/f"); err != nil {
			t.Errorf("rename: %v", err)
			return
		}
		got, err := r.fs.Namei(p, "/b/f")
		if err != nil || got.Ino != src.Ino {
			t.Errorf("target not replaced: %v", err)
		}
		if r.sb.CsNbfree != free0+1 {
			t.Errorf("victim's block not freed (%d -> %d)", free0, r.sb.CsNbfree)
		}
	})
	if rep := r.fsck(t); !rep.Clean() {
		t.Fatalf("fsck: %v", rep.Problems)
	}
}
