package iobench

import (
	"bytes"
	"flag"
	"testing"

	"ufsclust"
)

var updateTrace = flag.Bool("update-trace", false, "rewrite the golden scheduler trace")

// TestTraceMatchesGolden pins the scheduler's dispatch sequence to a
// committed fixture. The fixture was generated by the kernel before the
// fast-path rewrite (value-heap event queue, ring-buffer ready queue,
// hand-off scheduling), so this test is the byte-identical-replay gate:
// any kernel change that reorders even one dispatch fails here.
//
// Regenerate only when the simulated system's behaviour is intentionally
// changed, never to accommodate a kernel optimisation:
//
//	go test ./internal/iobench -run TraceMatchesGolden -update-trace
func TestTraceMatchesGolden(t *testing.T) {
	var tw bytes.Buffer
	prm := Params{FileMB: 1, RandomOps: 16, TraceW: &tw}
	if _, err := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, FSW, prm); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, tw.Bytes(), "trace_fsw_runA.golden", *updateTrace)
}
