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
