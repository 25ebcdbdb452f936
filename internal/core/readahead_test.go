package core

import (
	"testing"

	"ufsclust/internal/prefetch"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

// raStep is one observation of the read-ahead state after a page read.
type raStep struct {
	sync, async int64
	nextrio     int64
}

// readTrace reads the first n pages of f sequentially and records the
// engine's read-ahead state after each one.
func readTrace(p *sim.Proc, r *rig, f *File, n int64) []raStep {
	buf := make([]byte, 8192)
	var got []raStep
	for i := int64(0); i < n; i++ {
		f.Read(p, i*8192, buf)
		got = append(got, raStep{r.eng.Stats.SyncReads, r.eng.Stats.AsyncReads, f.vn.nextrio})
	}
	return got
}

// TestAdaptiveRampAtEngineLevel walks the Figure 6 geometry (maxcontig=3)
// under the adaptive policy and pins the full ramp: the first trigger
// arms without issuing, the second issues one cluster, and each
// confirmed window doubles the next.
func TestAdaptiveRampAtEngineLevel(t *testing.T) {
	cfg := ConfigA()
	cfg.Prefetch = prefetch.NewAdaptive(prefetch.AdaptiveConfig{})
	r := newRig(t, ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 3}, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		data := make([]byte, 24*8192)
		f.Write(p, 0, data)
		f.Purge(p)
		r.eng.Stats = Stats{}

		got := readTrace(p, r, f, 10)
		// Page 0: sync cluster 0-2, but the unconfirmed detector only
		// arms — no prefetch yet (the burst defence), cursor at the
		// demand cluster's end.
		if got[0].sync != 1 || got[0].async != 0 || got[0].nextrio != 3 {
			t.Errorf("page 0: %+v, want sync=1 async=0 nextrio=3 (armed, nothing issued)", got[0])
		}
		// Page 1 (cached): the stream is confirmed; one cluster 3-5.
		if got[1].async != 1 || got[1].nextrio != 6 {
			t.Errorf("page 1: %+v, want async=1 nextrio=6 (first window: one cluster)", got[1])
		}
		// Page 3: trigger at the prefetched cluster; window doubles to
		// two clusters 6-11.
		if got[3].async != 3 || got[3].nextrio != 12 {
			t.Errorf("page 3: %+v, want async=3 nextrio=12 (doubled: two clusters)", got[3])
		}
		// Page 9: doubles again to four clusters 12-23 (end of file).
		if got[9].async != 7 || got[9].nextrio != 24 {
			t.Errorf("page 9: %+v, want async=7 nextrio=24 (doubled: four clusters)", got[9])
		}
		if got[9].sync != 1 {
			t.Errorf("sync reads = %d after 10 pages, want 1 (everything past page 0 prefetched)", got[9].sync)
		}

		// Finish the file: every remaining page was prefetched.
		buf := make([]byte, 8192)
		for i := int64(10); i < 24; i++ {
			f.Read(p, i*8192, buf)
		}
		if r.eng.Stats.SyncReads != 1 {
			t.Errorf("sync reads = %d over the whole file, want 1", r.eng.Stats.SyncReads)
		}
		if r.eng.Stats.RAHits != 21 {
			t.Errorf("ra hits = %d, want 21 (pages 3-23 prefetched)", r.eng.Stats.RAHits)
		}
	})
}

// TestAdaptiveCollapseAndReconfirm seeks away from a ramped stream and
// verifies the window collapses, then re-confirms where the reader
// resumed: arm on the first sequential access, prefetch again on the
// second. The fixed policy cannot do this — after the collapse resets
// the cursor, its exact-match trigger goes dead on a contiguous layout.
func TestAdaptiveCollapseAndReconfirm(t *testing.T) {
	cfg := ConfigA()
	cfg.Prefetch = prefetch.NewAdaptive(prefetch.AdaptiveConfig{})
	r := newRig(t, ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 3}, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		data := make([]byte, 48*8192)
		f.Write(p, 0, data)
		f.Purge(p)
		r.eng.Stats = Stats{}
		buf := make([]byte, 8192)

		// Ramp up over the first ten pages (prefetch reaches block 24).
		readTrace(p, r, f, 10)
		if f.vn.ra == (prefetch.State{}) {
			t.Fatal("detector still cold after a sequential ramp")
		}

		// Random seek to an uncached block: the window collapses.
		f.Read(p, 30*8192, buf)
		if f.vn.ra != (prefetch.State{}) {
			t.Errorf("detector %+v after random seek, want zeroed (collapsed)", f.vn.ra)
		}
		if r.eng.Stats.RACollapses != 1 {
			t.Errorf("collapses = %d, want 1", r.eng.Stats.RACollapses)
		}

		// Resume sequentially at the seek target: the first access arms,
		// the second issues a window again.
		async := r.eng.Stats.AsyncReads
		f.Read(p, 31*8192, buf) // seq miss: arms, no prefetch
		if r.eng.Stats.AsyncReads != async {
			t.Errorf("async reads grew on the arming access (%d -> %d)", async, r.eng.Stats.AsyncReads)
		}
		f.Read(p, 32*8192, buf) // confirmed: prefetch resumes
		if r.eng.Stats.AsyncReads <= async {
			t.Error("prefetch did not resume on the re-confirmed stream")
		}
		if f.vn.ra == (prefetch.State{}) {
			t.Error("detector cold after re-confirmation")
		}
	})
}

// TestPurgeColdsReadAheadDetector ramps the adaptive window, purges the
// file, and reads it again from the start: the purge zeroes the
// vnode's detector, so the first sequential trigger only arms, exactly
// as on a file never read, and the second issues one cluster.
func TestPurgeColdsReadAheadDetector(t *testing.T) {
	cfg := ConfigA()
	cfg.Prefetch = prefetch.NewAdaptive(prefetch.AdaptiveConfig{})
	r := newRig(t, ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 3}, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		f.Write(p, 0, make([]byte, 24*8192))
		f.Purge(p)
		if got := readTrace(p, r, f, 10); got[9].async < 3 {
			t.Fatalf("ramp issued %d windows, want >= 3", got[9].async)
		}

		f.Purge(p)
		r.eng.Stats = Stats{}
		got := readTrace(p, r, f, 2)
		if got[0].sync != 1 || got[0].async != 0 || got[0].nextrio != 3 {
			t.Errorf("page 0 after purge: %+v, want sync=1 async=0 nextrio=3 (armed, nothing issued)", got[0])
		}
		if got[1].async != 1 || got[1].nextrio != 6 {
			t.Errorf("page 1 after purge: %+v, want async=1 nextrio=6 (first window: one cluster)", got[1])
		}
	})
}

// TestFixedPolicyMatchesDefault runs the Figure 6 trace twice — once
// with ConfigA's policy, once with a separately built NewFixed() — and
// requires identical per-page engine state: the fixed policy is
// stateless, so the seam must be invisible when the policy is the
// paper's. With no policy at all, neither engine reads ahead.
func TestFixedPolicyMatchesDefault(t *testing.T) {
	trace := func(cfg Config) []raStep {
		r := newRig(t, ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 3}, cfg, 0)
		var got []raStep
		r.run(t, func(p *sim.Proc) {
			f, _ := r.eng.Create(p, "/f")
			data := make([]byte, 24*8192)
			f.Write(p, 0, data)
			f.Purge(p)
			r.eng.Stats = Stats{}
			got = readTrace(p, r, f, 24)
		})
		return got
	}
	def := trace(ConfigA())
	cfg := ConfigA()
	cfg.Prefetch = prefetch.NewFixed()
	fix := trace(cfg)
	if len(def) != len(fix) {
		t.Fatalf("trace lengths differ: %d vs %d", len(def), len(fix))
	}
	for i := range def {
		if def[i] != fix[i] {
			t.Fatalf("page %d: default %+v, explicit fixed %+v", i, def[i], fix[i])
		}
	}
	for _, off := range []Config{ConfigA(), ConfigD()} {
		off.Prefetch = nil
		for i, st := range trace(off) {
			if st.async != 0 {
				t.Fatalf("clustered=%v, page %d: %d read-aheads with no policy, want none", off.Clustered, i, st.async)
			}
		}
	}
}
