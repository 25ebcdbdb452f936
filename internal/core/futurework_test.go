package core

import (
	"bytes"
	"testing"

	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

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

// Skipping the bmap of a cached page (the paper's UFS_HOLE) is done by
// the bmap cache: a hit answers without a descent, and holes are never
// cached, so a sparse file always takes the full bmap.

func TestSkipBmapOnHitReducesBmapCalls(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRigOpts(t, mk, cfg, ufs.MountOpts{BmapCache: true})
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		data := make([]byte, 256<<10)
		pattern(data, 5)
		f.Write(p, 0, data)
		f.Fsync(p)
		// Re-read the cached blocks in order: each getpage still
		// bmaps, but only the first block of each extent descends.
		calls, hits := r.fs.BmapCalls, r.fs.BmapCacheHits
		buf := make([]byte, 8192)
		const blocks = 32
		for lbn := int64(0); lbn < blocks; lbn++ {
			f.Read(p, lbn*8192, buf)
		}
		if d := r.fs.BmapCalls - calls; 2*d >= blocks {
			t.Errorf("bmap descended %d times for %d cached blocks, want under half", d, blocks)
		}
		if d := r.fs.BmapCacheHits - hits; 2*d <= blocks {
			t.Errorf("bmap cache hits = %d for %d cached blocks, want over half", d, blocks)
		}
		// Data is still correct.
		got := make([]byte, len(data))
		f.Read(p, 0, got)
		if !bytes.Equal(got, data) {
			t.Error("bmap cache hits corrupted data")
		}
	})
}

func TestSkipBmapNotAppliedToSparseFiles(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRigOpts(t, mk, cfg, ufs.MountOpts{BmapCache: true})
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/sparse")
		f.Write(p, 5*8192, make([]byte, 8192)) // hole in blocks 0-4
		f.Fsync(p)
		buf := make([]byte, 8192)
		f.Read(p, 0, buf) // hole read: must consult bmap
		calls, hits := r.fs.BmapCalls, r.fs.BmapCacheHits
		f.Read(p, 0, buf) // cached hole page: still may not skip
		if r.fs.BmapCacheHits != hits {
			t.Errorf("bmap cache hits = %d on a hole, want 0", r.fs.BmapCacheHits-hits)
		}
		if r.fs.BmapCalls == calls {
			t.Error("re-read of a cached hole skipped bmap")
		}
		if !bytes.Equal(buf, make([]byte, 8192)) {
			t.Error("hole read returned non-zero data")
		}
	})
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
