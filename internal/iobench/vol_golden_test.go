package iobench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ufsclust"
	"ufsclust/internal/disk"
	"ufsclust/internal/vol"
)

// TestVolumePassthroughMatchesGoldens proves the volume layer's
// identity composition: the 1 MB FSW run-A cell on a one-member concat
// volume must replay the bare-disk golden fixtures — the scheduler
// trace and the JSONL event stream — byte for byte. The volume adds no
// simulation processes, no events, no labels, and no translation for a
// single member, so if this test fails the layer has leaked into the
// machine's behaviour and every pre-volume measurement is suspect.
//
// There is deliberately no -update flag for those two: the fixtures
// belong to the bare-disk tests, and this test only ever consumes them.
func TestVolumePassthroughMatchesGoldens(t *testing.T) {
	var tw, ew bytes.Buffer
	prm := Params{FileMB: 1, RandomOps: 16, TraceW: &tw, EventW: &ew}
	sc := ufsclust.Scenario{Run: ufsclust.RunA(), Volume: &vol.Config{Level: vol.Concat, Members: 1}}
	if _, _, err := RunMeasured(sc, FSW, prm); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		golden string
		got    []byte
	}{
		{"trace", "trace_fsw_runA.golden", tw.Bytes()},
		{"events", "events_fsw_runA.golden", ew.Bytes()},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(c.got, want) {
			continue
		}
		gl := bytes.Split(c.got, []byte("\n"))
		wl := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s: 1-member concat diverges from the bare-disk golden at line %d:\n  got:  %q\n  want: %q",
					c.name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: length differs from golden: got %d lines, want %d", c.name, len(gl), len(wl))
	}

	// The compositions that do translate — a two-member concat, a stripe
	// set, a mirror — replay the event streams they produced before
	// disk.Device grew its write-unit hint: all three report no unit, so
	// neither the engine's write clustering nor the allocator may have
	// moved by one event. The two RAID-5 streams, healthy and with sd1
	// dead from boot, were recorded before the parity disciplines moved
	// behind one row plan (vol/plan.go) and pin its member order: every
	// sub-request, parity_rmw and degraded_read lands where it did. These
	// fixtures are this test's own (-update-events rewrites them, for a
	// deliberate change to a level).
	member := disk.DefaultParams()
	member.Geom = disk.UniformGeometry(200, 8, 64, 3600) // 50 MB, so mkfs stays quick
	for _, vc := range []vol.Config{
		{Level: vol.Concat, Members: 2},
		{Level: vol.RAID0, Members: 3},
		{Level: vol.RAID1, Members: 2},
		{Level: vol.RAID5, Members: 3},
		{Level: vol.RAID5, Members: 3, Degraded: []int{1}},
	} {
		vc.Member = &member
		var ew bytes.Buffer
		prm := Params{FileMB: 1, RandomOps: 16, EventW: &ew}
		if _, _, err := RunMeasured(ufsclust.Scenario{Run: ufsclust.RunA(), Volume: &vc}, FSW, prm); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("events_fsw_runA_%sx%d", vc.Level, vc.Members)
		for _, d := range vc.Degraded {
			name += fmt.Sprintf("_degraded%d", d)
		}
		checkGolden(t, ew.Bytes(), name+".golden")
	}
}
