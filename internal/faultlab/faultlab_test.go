package faultlab

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ufsclust"
	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

var updateFaultEvents = flag.Bool("update-fault-events", false, "rewrite the golden fault-event JSONL stream")

// runA is the machine every test workload runs on: run A at the given
// seed, journaled when a mode is named.
func runA(seed int64, journal string) ufsclust.Scenario {
	return ufsclust.Scenario{Run: ufsclust.RunA(), Seed: seed, Journal: journal}
}

func TestPatternByteNeverZero(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		for off := int64(0); off < 1<<16; off++ {
			if PatternByte(seed, off) == 0 {
				t.Fatalf("PatternByte(%d, %d) = 0; zero must be reserved for unwritten bytes", seed, off)
			}
		}
	}
	// And it actually varies, or torn detection would be vacuous.
	if PatternByte(1, 0) == PatternByte(1, 1) && PatternByte(1, 1) == PatternByte(1, 2) {
		t.Fatal("pattern is constant")
	}
}

// TestCrashPointProperty is the harness's core property: wherever the
// cut lands, the recovered file contains exactly the acknowledged
// prefix (intact), and nothing beyond the watermark except data the
// workload had actually written. Swept across the whole workload at
// two seeds and two fsync cadences.
func TestCrashPointProperty(t *testing.T) {
	for _, tc := range []struct {
		seed       int64
		fsyncEvery int
	}{
		{seed: 7, fsyncEvery: 256 << 10},
		{seed: 11, fsyncEvery: 0}, // only the final fsync: watermark stays 0
	} {
		w := Workload{Scenario: runA(tc.seed, ""), FileMB: 2, FsyncEvery: tc.fsyncEvery}
		sr, err := Sweep(w, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Reports) != 10 {
			t.Fatalf("seed %d: %d reports, want 10", tc.seed, len(sr.Reports))
		}
		for _, r := range sr.Reports {
			if r.Outcome.Violation() {
				t.Errorf("seed %d cut %v (acked %d): %s: %s", tc.seed, r.Cut, r.Acked, r.Outcome, r.Detail)
			}
		}
		// The sweep must actually exercise mid-write cuts, not just
		// trivial before/after states.
		torn := 0
		for _, r := range sr.Reports {
			if r.Outcome == OutcomeTornTail {
				torn++
			}
		}
		if torn == 0 {
			t.Errorf("seed %d: no torn-tail outcome in %d cuts; sweep missed the interesting region", tc.seed, len(sr.Reports))
		}
	}
}

// TestSweepWriteCellAcceptance is the acceptance gate: at least 50 cut
// points across the full IObench sequential-write cell (16 MB), every
// recovery verified byte by byte, zero silent-corruption outcomes.
func TestSweepWriteCellAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("50-cut 16 MB sweep in -short mode")
	}
	w := Workload{Scenario: runA(42, ""), FileMB: 16, FsyncEvery: 1 << 20}
	sr, err := Sweep(w, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := sr.Violations(); len(v) != 0 {
		t.Fatalf("%d crash-consistency violations:\n%s", len(v), sr.Format())
	}
	t.Logf("\n%s", sr.Format())
}

func TestRecoverFlagsLostAcknowledgedData(t *testing.T) {
	// Corrupt the frozen image behind the harness's back: zero a
	// sector inside the acknowledged prefix. Recover must say
	// LOST-DATA, proving the verifier can actually fail.
	w := Workload{Scenario: runA(3, ""), FileMB: 1, FsyncEvery: 256 << 10}
	st, err := RunToCrash(w, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Acked != w.Size() {
		t.Fatalf("uncut workload acked %d of %d", st.Acked, w.Size())
	}
	// Find a sector holding acknowledged data and wipe it. The file's
	// bytes are pattern (never zero), so scan the image for a sector
	// matching the start of the pattern.
	m, err := ufsclust.New(w.Run, ufsclust.WithImage(st.Images...))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 512)
	for i := range want {
		want[i] = PatternByte(w.Seed, int64(i))
	}
	found := int64(-1)
	buf := make([]byte, 512)
	for s := int64(0); s < m.Disk.Geom().TotalSectors(); s++ {
		m.Disk.ReadImage(s, buf)
		if bytes.Equal(buf, want) {
			found = s
			break
		}
	}
	if found < 0 {
		t.Fatal("could not locate the file's first sector in the image")
	}
	m.Disk.WriteImage(found, make([]byte, 512))
	st.Images[0] = m.Disk.Snapshot()
	m.Close()

	rep, _, err := Recover(w, st)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeLostData {
		t.Fatalf("outcome = %s, want LOST-DATA (detail: %s)", rep.Outcome, rep.Detail)
	}
}

// faultEventStream runs a small fsync-heavy write workload under a
// plan that exercises all three fault event kinds — a transient media
// error (fault_inject), its retry (io_retry), and an event-anchored
// power cut (crash_cut) — and returns the machine's JSONL stream.
func faultEventStream(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	plan := fault.Plan{Rules: []fault.Rule{
		fault.FailNth(3, fault.Writes, 1),
		fault.CutAtEvent(telemetry.EvIOStart, 20),
	}}
	m, err := ufsclust.New(ufsclust.RunA(),
		ufsclust.WithSeed(99),
		ufsclust.WithTelemetry(&buf),
		ufsclust.WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Create(p, "/f")
		if err != nil {
			t.Error(err)
			return
		}
		chunk := make([]byte, 8192)
		for off := int64(0); off < 1<<20; off += int64(len(chunk)) {
			for i := range chunk {
				chunk[i] = PatternByte(99, off+int64(i))
			}
			if _, err := f.Write(p, off, chunk); err != nil {
				return // the cut may strand the write; fine
			}
			if (off+int64(len(chunk)))%(128<<10) == 0 {
				if err := f.Fsync(p); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Fault.Crashed() {
		t.Fatal("plan never cut power; the fixture must include a crash_cut")
	}
	return buf.String()
}

// TestFaultEventsDeterministicGolden locks the full event stream of a
// faulty run: same seed + same plan → byte-identical JSONL, matching
// the committed fixture, with every fault event kind present.
func TestFaultEventsDeterministicGolden(t *testing.T) {
	got := faultEventStream(t)
	if again := faultEventStream(t); again != got {
		t.Fatal("same seed, same plan produced different event streams")
	}
	for _, ev := range []string{`"ev":"fault_inject"`, `"ev":"io_retry"`, `"ev":"crash_cut"`} {
		if !strings.Contains(got, ev) {
			t.Errorf("stream is missing %s", ev)
		}
	}
	const path = "testdata/events_fault.golden"
	if *updateFaultEvents {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-fault-events)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("event stream diverged from golden at line %d:\ngot:  %s\nwant: %s\n(regenerate with -update-fault-events)",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("event stream length %d lines, golden %d (regenerate with -update-fault-events)", len(gl), len(wl))
	}
}

func TestFormatListsViolations(t *testing.T) {
	sr := &SweepResult{
		Workload: Workload{Scenario: runA(0, ""), FileMB: 2}.withDefaults(),
		Total:    sim.Second,
		Reports: []Report{
			{Outcome: OutcomeTornTail, Cut: sim.Millisecond},
			{Outcome: OutcomeLostData, Cut: 2 * sim.Millisecond, Acked: 4096, Detail: "acknowledged byte 17: got 0x00, want 0x5a"},
		},
	}
	out := sr.Format()
	if !strings.Contains(out, "torn-tail") || !strings.Contains(out, "LOST-DATA") {
		t.Fatalf("histogram incomplete:\n%s", out)
	}
	if !strings.Contains(out, "VIOLATION at cut") {
		t.Fatalf("violation line missing:\n%s", out)
	}
	if len(sr.Violations()) != 1 {
		t.Fatalf("violations = %d, want 1", len(sr.Violations()))
	}
}

// TestNegativeSizesAreAnError: `faultlab -file -1` used to sweep an
// empty workload and report every cut "absent".
func TestNegativeSizesAreAnError(t *testing.T) {
	for _, w := range []Workload{{FileMB: -1}, {IOSize: -1}, {FsyncEvery: -1}} {
		w.Scenario = runA(1, "")
		if sr, err := Sweep(w, 2, 1); err == nil {
			t.Errorf("file %d MB, I/O %d, fsync %d: swept %d cuts", w.FileMB, w.IOSize, w.FsyncEvery, len(sr.Reports))
		}
	}
}

func ExampleSweep() {
	w := Workload{Scenario: runA(1, ""), FileMB: 1, FsyncEvery: 128 << 10}
	sr, err := Sweep(w, 4, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(sr.Reports), "cuts,", len(sr.Violations()), "violations")
	// Output: 4 cuts, 0 violations
}
