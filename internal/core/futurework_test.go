package core

import (
	"bytes"
	"testing"

	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

// --- Further Work: UFS_HOLE (skip bmap on cache hit) ----------------------

func TestSkipBmapOnHitReducesBmapCalls(t *testing.T) {
	mk, cfg := clusteredOpts()
	cfg.SkipBmapOnHit = true
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		data := make([]byte, 256<<10)
		pattern(data, 5)
		f.Write(p, 0, data)
		f.Fsync(p)
		// Re-read random cached blocks: every one should skip bmap.
		calls := r.fs.BmapCalls
		buf := make([]byte, 8192)
		for _, lbn := range []int64{20, 7, 15, 3, 11, 28, 9} {
			f.Read(p, lbn*8192, buf)
		}
		if r.eng.Stats.BmapSkips < 7 {
			t.Errorf("bmapSkips = %d, want >= 7", r.eng.Stats.BmapSkips)
		}
		if r.fs.BmapCalls != calls {
			t.Errorf("bmap called %d more times on cached hole-free reads", r.fs.BmapCalls-calls)
		}
		// Data is still correct.
		got := make([]byte, len(data))
		f.Read(p, 0, got)
		if !bytes.Equal(got, data) {
			t.Error("skip-bmap path corrupted data")
		}
	})
}

func TestSkipBmapNotAppliedToSparseFiles(t *testing.T) {
	mk, cfg := clusteredOpts()
	cfg.SkipBmapOnHit = true
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/sparse")
		f.Write(p, 5*8192, make([]byte, 8192)) // hole in blocks 0-4
		f.Fsync(p)
		buf := make([]byte, 8192)
		f.Read(p, 0, buf) // hole read: must consult bmap
		f.Read(p, 0, buf) // cached hole page: still may not skip
		if r.eng.Stats.BmapSkips != 0 {
			t.Errorf("bmapSkips = %d on a sparse file, want 0", r.eng.Stats.BmapSkips)
		}
	})
}

// --- Further Work: random clustering ---------------------------------------

func TestRandomClusteringDataIntact(t *testing.T) {
	mk, _ := clusteredOpts()
	cfg := ConfigA()
	cfg.RandomClustering = true
	r := newRig(t, mk, cfg, 0)
	data := make([]byte, 1<<20)
	pattern(data, 9)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		f.Write(p, 0, data)
		f.Purge(p)
		got := make([]byte, 40<<10)
		for _, off := range []int64{640 << 10, 128 << 10, 896 << 10, 0} {
			f.Read(p, off, got)
			if !bytes.Equal(got, data[off:off+int64(len(got))]) {
				t.Errorf("hinted read at %d corrupted data", off)
				return
			}
		}
	})
}

// --- Further Work: bmap cache (ufs-level, exercised through the engine) ----

func TestBmapCacheInvalidatedByReallocation(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRigOpts(t, mk, cfg, ufs.MountOpts{BmapCache: true})
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		data := make([]byte, 128<<10)
		pattern(data, 3)
		f.Write(p, 0, data)
		f.Fsync(p)
		buf := make([]byte, 8192)
		f.Read(p, 0, buf) // populate the cache
		// Truncate and rewrite different content: stale translations
		// must not survive.
		f.Truncate(p, 0)
		pattern(data, 4)
		f.Write(p, 0, data)
		f.Purge(p)
		got := make([]byte, len(data))
		f.Read(p, 0, got)
		if !bytes.Equal(got, data) {
			t.Error("stale bmap cache served old translation")
		}
	})
	verifyOK(t, r)
}

// newRigOpts is newRig with explicit mount options.
func newRigOpts(t *testing.T, mkfs ufs.MkfsOpts, cfg Config, mo ufs.MountOpts) *rig {
	t.Helper()
	r := newRig(t, mkfs, cfg, cfg.WriteLimit)
	fs, err := ufs.Mount(r.s, r.eng.CPU, r.dr, mo)
	if err != nil {
		t.Fatal(err)
	}
	r.fs = fs
	r.eng = NewEngine(r.s, r.eng.CPU, r.v, fs, cfg)
	return r
}

// --- Further Work: data in the inode ----------------------------------------

func TestInodeDataCacheServesSmallFiles(t *testing.T) {
	mk, _ := clusteredOpts()
	cfg := ConfigA()
	cfg.InodeDataCache = true
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/small")
		data := make([]byte, 1500)
		pattern(data, 13)
		f.Write(p, 0, data)
		f.Fsync(p)
		got := make([]byte, len(data))
		f.Read(p, 0, got) // populates the cache
		faults := r.eng.Stats.GetPages
		for i := 0; i < 10; i++ {
			f.Read(p, 0, got)
		}
		if r.eng.Stats.GetPages != faults {
			t.Errorf("%d extra getpage calls for inode-cached reads", r.eng.Stats.GetPages-faults)
		}
		if r.eng.Stats.InodeDataHits < 10 {
			t.Errorf("inodeDataHits = %d, want >= 10", r.eng.Stats.InodeDataHits)
		}
		if !bytes.Equal(got, data) {
			t.Error("inode data cache corrupted content")
		}
		// A write invalidates it.
		patch := []byte{0xAA, 0xBB}
		f.Write(p, 10, patch)
		f.Fsync(p)
		copy(data[10:], patch)
		f.Read(p, 0, got)
		if !bytes.Equal(got, data) {
			t.Error("stale inode data served after write")
		}
	})
}

func TestInodeDataCacheIgnoresLargeFiles(t *testing.T) {
	mk, _ := clusteredOpts()
	cfg := ConfigA()
	cfg.InodeDataCache = true
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/big")
		f.Write(p, 0, make([]byte, 64<<10))
		f.Fsync(p)
		buf := make([]byte, 8192)
		for i := 0; i < 5; i++ {
			f.Read(p, 0, buf)
		}
		if r.eng.Stats.InodeDataHits != 0 {
			t.Errorf("inode cache engaged for a %dKB file", 64)
		}
	})
}
