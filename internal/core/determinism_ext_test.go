// Byte-identical replay gates for the full workloads, complementing the
// engine-level gate in determinism_test.go. These run a complete
// iobench cell and a complete musbus mix twice each, capturing the
// scheduler trace, and require the two traces to match byte for byte.
// The fast-path kernel (value-heap event queue, ring ready queue,
// hand-off dispatch) must be invisible here: host-side speed may change,
// the dispatch sequence may not.
package core_test

import (
	"bytes"
	"testing"

	"ufsclust"
	"ufsclust/internal/iobench"
	"ufsclust/internal/musbus"
	"ufsclust/internal/sim"
)

// replayTwice runs one traced workload twice and requires both the
// scheduler traces and the results to match.
func replayTwice[R comparable](t *testing.T, what string, run func(tw *bytes.Buffer) (R, error)) {
	t.Helper()
	var traces [2]bytes.Buffer
	var results [2]R
	for i := range traces {
		var err error
		if results[i], err = run(&traces[i]); err != nil {
			t.Fatal(err)
		}
	}
	if traces[0].Len() == 0 {
		t.Fatalf("empty scheduler trace: TraceW not wired through %s", what)
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Fatalf("%s traces differ between identical runs (%d vs %d bytes)", what, traces[0].Len(), traces[1].Len())
	}
	if results[0] != results[1] {
		t.Fatalf("%s results differ between identical runs:\n%+v\n%+v", what, results[0], results[1])
	}
}

func TestIobenchReplayByteIdentical(t *testing.T) {
	replayTwice(t, "iobench FSW", func(tw *bytes.Buffer) (iobench.Result, error) {
		sc := ufsclust.Scenario{Run: ufsclust.RunD(), Seed: 3}
		return iobench.Run(sc, iobench.FSW, iobench.Params{FileMB: 1, RandomOps: 16, TraceW: tw})
	})
}

func TestMusbusReplayByteIdentical(t *testing.T) {
	replayTwice(t, "musbus", func(tw *bytes.Buffer) (musbus.Result, error) {
		prm := musbus.Params{Users: 3, Duration: 20 * sim.Second, TraceW: tw}
		return musbus.Run(ufsclust.Scenario{Run: ufsclust.RunA(), Seed: 9}, prm)
	})
}
