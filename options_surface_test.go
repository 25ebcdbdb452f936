package ufsclust

import (
	"io"
	"reflect"
	"testing"

	"ufsclust/internal/core"
	"ufsclust/internal/driver"
	"ufsclust/internal/fault"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vec"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// TestPublicOptionsSurface pins the field lists of Options and of every
// config struct it carries. Adding, removing, or renaming a field must
// touch a list here deliberately — the functional options, README, and
// DESIGN.md all follow from it — the way a new metric has to edit
// testdata/metrics_manifest.txt. A setting no caller varies is a
// constant in the package that uses it, not a field. The lists sum to
// the machine's settable-value count, which the test logs for make loc
// and pins.
func TestPublicOptionsSurface(t *testing.T) {
	total := 0
	for _, tc := range []struct {
		v    any
		want []string
	}{
		{Options{}, []string{
			"Seed", "MemBytes",
			"Driver", "Mkfs", "Mount", "Engine",
			"EventJSONL", "Fault",
			"Images", "Recover",
			"Volume",
		}},
		{core.Config{}, []string{"Clustered", "Prefetch", "Vec", "FreeBehind", "WriteLimit", "RandomClustering"}},
		{ufs.MkfsOpts{}, []string{"Ipg", "Minfree", "Rotdelay", "Maxcontig", "LogBlocks"}},
		{ufs.MountOpts{}, []string{"BmapCache", "OrderedWrites"}},
		{driver.Config{}, []string{"MaxPhys", "Coalesce"}},
		{wal.Config{}, []string{}},
		{vol.Config{}, []string{"Level", "Members", "StripeKB", "Member", "Degraded"}},
		{prefetch.AdaptiveConfig{}, []string{}},
	} {
		total += len(tc.want)
		typ := reflect.TypeOf(tc.v)
		got := make([]string, 0, typ.NumField())
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v fields drifted:\ngot:  %v\nwant: %v", typ, got, tc.want)
		}
	}
	t.Logf("settable values: %d", total)
	if total != 31 {
		t.Errorf("settable values = %d, want 31", total)
	}
}

// TestOptionConstructorsCompose pins every With* constructor by
// reference — a removed or re-signatured option fails to compile here —
// and checks they all apply cleanly to one Options value.
func TestOptionConstructorsCompose(t *testing.T) {
	opts := []Option{
		WithSeed(7),
		WithMemBytes(8 << 20),
		WithReadAhead(prefetch.NewFixed()),
		WithVecStrategy(vec.Auto()),
		WithTelemetry(io.Discard),
		WithFaultPlan(fault.Plan{}),
		WithImage(),
		WithRecovery(),
		WithVolume(vol.Config{}),
		WithJournal(wal.Config{}),
	}
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	if o.Mkfs.LogBlocks != wal.LogBlocks || o.Seed != 7 {
		t.Error("options did not apply")
	}
}

// TestResetStatsRemoved pins the removal milestone documented in the
// telemetry PR: the deprecated Machine.ResetStats shim is gone, and no
// method of that name may quietly come back.
func TestResetStatsRemoved(t *testing.T) {
	mt := reflect.TypeOf(&Machine{})
	for i := 0; i < mt.NumMethod(); i++ {
		if mt.Method(i).Name == "ResetStats" {
			t.Error("Machine.ResetStats is back; measure with Snapshot/Delta instead")
		}
	}
}
