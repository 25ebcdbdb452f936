package iobench

import (
	"bytes"
	"testing"

	"ufsclust"
)

// runKindStream runs one 1 MB run-A cell under the named read-ahead
// policy ("" = the run configuration's default fixed read-ahead) and
// returns the measured phase's JSONL event stream.
func runKindStream(t *testing.T, kind Kind, ra string) []byte {
	t.Helper()
	var ew bytes.Buffer
	prm := Params{FileMB: 1, RandomOps: 16, EventW: &ew}
	if _, _, err := RunMeasured(ufsclust.Scenario{Run: ufsclust.RunA(), ReadAhead: ra}, kind, prm); err != nil {
		t.Fatal(err)
	}
	return ew.Bytes()
}

// TestAdaptiveEventStreamDeterministic is the replay contract for the
// adaptive policy: same seed, same byte stream — including the
// ra_window events only this policy emits.
func TestAdaptiveEventStreamDeterministic(t *testing.T) {
	a := runKindStream(t, FMX, "adaptive")
	b := runKindStream(t, FMX, "adaptive")
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed adaptive event streams differ (%d vs %d bytes)", len(a), len(b))
	}
	if !bytes.Contains(a, []byte(`"ra_window"`)) {
		t.Fatal("adaptive mixed run emitted no ra_window events")
	}
	checkGolden(t, a, "events_fmx_adaptive_runA.golden", *updateEvents)
}

// pressureCell runs one cell under memory pressure (file twice physical
// memory, like the paper's 16 MB / 8 MB setup but scaled down) and
// returns the rate plus the read-ahead hit/waste counters.
func pressureCell(t *testing.T, kind Kind, ops int, ra string) (rate float64, hits, waste int64) {
	t.Helper()
	sc := ufsclust.Scenario{Run: ufsclust.RunA(), MemBytes: 1 << 20, ReadAhead: ra}
	res, snap, err := RunMeasured(sc, kind, Params{FileMB: 2, RandomOps: ops})
	if err != nil {
		t.Fatal(err)
	}
	return res.RateKBs(), snap.Get("core.ra_hits"), snap.Get("vm.ra_waste")
}

// TestAdaptiveBeatsFixedOnMixed is the acceptance test for the adaptive
// window, three cells under the same memory pressure:
//
//   - FSR: adaptive must hold the fixed policy's sequential throughput
//     (within 2%) — the ramp-up delay is the only cost it may pay.
//   - FMX: adaptive must beat both fixed-on and fixed-off. Fixed's
//     exact-match cursor goes dead after random interruptions, off never
//     prefetches; the adaptive detector re-confirms each resumed stream.
//   - FRR: adaptive must waste strictly fewer prefetched blocks than
//     fixed. Fixed fires on any access that reaches the trigger
//     condition — on pure random traffic those accidental matches each
//     cost a cluster of dead prefetch — while the adaptive detector
//     refuses to issue without two confirmed sequential accesses.
func TestAdaptiveBeatsFixedOnMixed(t *testing.T) {
	const fixed, adaptive, off = "fixed", "adaptive", "off"

	fixedSeq, _, _ := pressureCell(t, FSR, 0, fixed)
	adptSeq, _, _ := pressureCell(t, FSR, 0, adaptive)
	t.Logf("FSR rate KB/s: fixed=%.0f adaptive=%.0f", fixedSeq, adptSeq)
	if adptSeq < fixedSeq*0.98 {
		t.Errorf("adaptive FSR rate %.1f KB/s below 98%% of fixed %.1f KB/s", adptSeq, fixedSeq)
	}

	fixedMix, fixedHits, _ := pressureCell(t, FMX, 16, fixed)
	adptMix, adptHits, _ := pressureCell(t, FMX, 16, adaptive)
	offMix, _, _ := pressureCell(t, FMX, 16, off)
	t.Logf("FMX rate KB/s: fixed=%.0f adaptive=%.0f off=%.0f (hits fixed=%d adaptive=%d)",
		fixedMix, adptMix, offMix, fixedHits, adptHits)
	if adptMix <= fixedMix {
		t.Errorf("adaptive FMX rate %.1f not above fixed %.1f", adptMix, fixedMix)
	}
	if adptMix <= offMix {
		t.Errorf("adaptive FMX rate %.1f not above off %.1f", adptMix, offMix)
	}

	_, _, fixedWaste := pressureCell(t, FRR, 512, fixed)
	_, _, adptWaste := pressureCell(t, FRR, 512, adaptive)
	t.Logf("FRR waste blocks: fixed=%d adaptive=%d", fixedWaste, adptWaste)
	if fixedWaste == 0 {
		t.Fatal("fixed policy wasted no prefetches on the random cell; workload not exercising the failure mode")
	}
	if adptWaste >= fixedWaste {
		t.Errorf("adaptive wasted %d prefetched blocks, fixed wasted %d; want strictly fewer", adptWaste, fixedWaste)
	}
}
