package iobench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ufsclust"
	"ufsclust/internal/disk"
	"ufsclust/internal/vol"
)

var updateEvents = flag.Bool("update-events", false, "rewrite the golden JSONL event streams")

// checkGolden compares got with testdata/name, reporting the first line
// that differs; with update it rewrites the fixture instead.
func checkGolden(t *testing.T, got []byte, name string, update bool) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if update {
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
			t.Fatalf("diverges from %s at line %d:\n  got:  %s\n  want: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("length differs from %s: got %d lines, want %d", name, len(gl), len(wl))
}

// TestEventStreamDeterministic is the telemetry half of the
// byte-identical-replay contract: two same-seed runs must export the
// same JSONL event stream down to the byte.
func TestEventStreamDeterministic(t *testing.T) {
	a := runKindStream(t, FSW, "")
	b := runKindStream(t, FSW, "")
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed event streams differ (%d vs %d bytes)", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("measured phase emitted no events")
	}
}

// TestEventStreamMatchesGolden pins the structured event stream of
// every golden cell — a 1 MB cell with 16 random operations — to a
// committed fixture: any change to emission sites, event ordering, or
// the JSONL encoding fails here. A row that names the fixture it
// replays owns none; it proves one mechanism byte-identical to another:
//
//   - vec_single runs every scalar Read/Write of the measured phase
//     through a single-element Readv/Writev. The FSR and FSW fixtures
//     predate Readv and Writev, so any charge, counter, or event the
//     vectored paths add to the single-element case fails here. The
//     FSR and FRR fixtures also predate the read-ahead policy interface,
//     so the default fixed policy is the hardwired nextrio read-ahead.
//   - concatx1 is the volume layer's identity composition, spelled out
//     with WithVolume: it replays the single-drive scheduler trace and
//     event stream, so the volume adds no process, event, label, or
//     translation for a single member.
//   - The compositions that do translate — a two-member concat, a
//     stripe set, a mirror — replay the streams they produced before
//     disk.Device grew its write-unit hint: all three report no unit,
//     so neither the engine's write clustering nor the allocator may
//     have moved by one event. The two RAID-5 streams, healthy and with
//     sd1 dead from boot, were recorded before the parity disciplines
//     moved behind one row plan (vol/plan.go) and pin its member order.
//
// Regenerate only for intentional behaviour or format changes; this
// rewrites the fixtures rows own, never one a row replays:
//
//	go test ./internal/iobench -run EventStreamMatchesGolden -update-events
func TestEventStreamMatchesGolden(t *testing.T) {
	member := disk.DefaultParams()
	member.Geom = disk.UniformGeometry(200, 8, 64, 3600) // 50 MB, so mkfs stays quick
	on := func(vc vol.Config) ufsclust.Scenario {
		vc.Member = &member
		return ufsclust.Scenario{Run: ufsclust.RunA(), Volume: &vc}
	}
	runA := ufsclust.Scenario{Run: ufsclust.RunA()}
	for _, c := range []struct {
		name      string // subtest; the fixture is events_<name>.golden unless replays is set
		sc        ufsclust.Scenario
		kind      Kind
		vecSingle bool
		replays   string // the row whose fixture this one reproduces
		trace     bool   // also reproduce trace_<replays>.golden
	}{
		{name: "fsw_runA", sc: runA, kind: FSW},
		{name: "fsr_runA", sc: runA, kind: FSR},
		{name: "frr_runA", sc: runA, kind: FRR},
		{name: "fsr_runA_vec_single", sc: runA, kind: FSR, vecSingle: true, replays: "fsr_runA"},
		{name: "fsw_runA_vec_single", sc: runA, kind: FSW, vecSingle: true, replays: "fsw_runA"},
		{name: "fsw_runA_concatx1", sc: ufsclust.Scenario{Run: ufsclust.RunA(), Volume: &vol.Config{Level: vol.Concat, Members: 1}},
			kind: FSW, replays: "fsw_runA", trace: true},
		{name: "fsw_runA_concatx2", sc: on(vol.Config{Level: vol.Concat, Members: 2}), kind: FSW},
		{name: "fsw_runA_raid0x3", sc: on(vol.Config{Level: vol.RAID0, Members: 3}), kind: FSW},
		{name: "fsw_runA_raid1x2", sc: on(vol.Config{Level: vol.RAID1, Members: 2}), kind: FSW},
		{name: "fsw_runA_raid5x3", sc: on(vol.Config{Level: vol.RAID5, Members: 3}), kind: FSW},
		{name: "fsw_runA_raid5x3_degraded1", sc: on(vol.Config{Level: vol.RAID5, Members: 3, Degraded: []int{1}}), kind: FSW},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ew, tw bytes.Buffer
			prm := Params{FileMB: 1, RandomOps: 16, EventW: &ew, VecSingle: c.vecSingle}
			if c.trace {
				prm.TraceW = &tw
			}
			if _, _, err := RunMeasured(c.sc, c.kind, prm); err != nil {
				t.Fatal(err)
			}
			if c.replays == "" {
				checkGolden(t, ew.Bytes(), "events_"+c.name+".golden", *updateEvents)
				return
			}
			checkGolden(t, ew.Bytes(), "events_"+c.replays+".golden", false)
			if c.trace {
				checkGolden(t, tw.Bytes(), "trace_"+c.replays+".golden", false)
			}
		})
	}
}
