package ufsclust

import (
	"io"
	"reflect"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/fault"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/vec"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// TestPublicOptionsSurface pins the Options struct field list. Adding,
// removing, or renaming a field must touch this list deliberately —
// the functional options, README, and DESIGN.md all follow from it.
func TestPublicOptionsSurface(t *testing.T) {
	want := []string{
		"Seed", "MIPS", "MemBytes",
		"Disk", "Driver", "Mkfs", "Mount", "Engine",
		"EventJSONL", "Fault",
		"Images", "Recover",
		"Volume",
		"Journal",
	}
	typ := reflect.TypeOf(Options{})
	got := make([]string, 0, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Options fields drifted:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestOptionConstructorsCompose pins every With* constructor by
// reference — a removed or re-signatured option fails to compile here —
// and checks they all apply cleanly to one Options value.
func TestOptionConstructorsCompose(t *testing.T) {
	opts := []Option{
		WithSeed(7),
		WithMemBytes(8 << 20),
		WithDiskParams(disk.DefaultParams()),
		WithDriverConfig(driver.DefaultConfig()),
		WithWriteLimit(0),
		WithFreeBehind(false),
		WithReadAhead(prefetch.NewFixed()),
		WithVecStrategy(vec.Auto(0)),
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
	if o.Journal == nil || o.Seed != 7 {
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
