package iobench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ufsclust"
)

var updateEvents = flag.Bool("update-events", false, "rewrite the golden JSONL event stream")

func runEventStream(t *testing.T) []byte {
	t.Helper()
	var ew bytes.Buffer
	prm := Params{FileMB: 1, RandomOps: 16, EventW: &ew}
	if _, _, err := RunMeasured(ufsclust.Scenario{Run: ufsclust.RunA()}, FSW, prm); err != nil {
		t.Fatal(err)
	}
	return ew.Bytes()
}

// TestEventStreamDeterministic is the telemetry half of the
// byte-identical-replay contract: two same-seed runs must export the
// same JSONL event stream down to the byte.
func TestEventStreamDeterministic(t *testing.T) {
	a := runEventStream(t)
	b := runEventStream(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed event streams differ (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("measured phase emitted no events")
	}
}

// TestEventStreamMatchesGolden pins the structured event stream of the
// 1 MB FSW run-A cell to a committed fixture, the same way the
// scheduler trace is pinned: any change to emission sites, event
// ordering, or the JSONL encoding fails here.
//
// Regenerate only for intentional behaviour or format changes:
//
//	go test ./internal/iobench -run EventStreamMatchesGolden -update-events
func TestEventStreamMatchesGolden(t *testing.T) {
	got := runEventStream(t)
	golden := filepath.Join("testdata", "events_fsw_runA.golden")
	if *updateEvents {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("event stream diverges from golden at line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("event stream length differs from golden: got %d lines, want %d", len(gl), len(wl))
}
