package ufsclust

import (
	"fmt"
	"strings"

	"ufsclust/internal/core"
	"ufsclust/internal/driver"
	"ufsclust/internal/ufs"
)

// RunConfig is one row of the paper's Figure 9: a complete benchmark
// configuration combining on-disk tuning, code path, and heuristics.
type RunConfig struct {
	Name       string
	ClusterKB  int    // cluster size: maxcontig * 8 KB
	RotdelayMs int    // allocator gap
	UFSVersion string // which engine: "4.1.1" clustered / "4.1" legacy
	FreeBehind bool
	WriteLimit bool
}

// WriteLimitBytes is the paper's per-file cap on queued write I/O:
// "we allow a fairly large (currently 240KB) amount of I/O per file in
// the disk queue."
const WriteLimitBytes = 240 << 10

// RunA is SunOS 4.1.1 tuned to 120 KB clusters: clustering engine,
// contiguous allocation, free-behind, write limit.
func RunA() RunConfig {
	return RunConfig{Name: "A", ClusterKB: 120, RotdelayMs: 0, UFSVersion: "4.1.1", FreeBehind: true, WriteLimit: true}
}

// RunB is the legacy engine plus both heuristics.
func RunB() RunConfig {
	return RunConfig{Name: "B", ClusterKB: 8, RotdelayMs: 4, UFSVersion: "4.1", FreeBehind: true, WriteLimit: true}
}

// RunC is the legacy engine plus only the write limit.
func RunC() RunConfig {
	return RunConfig{Name: "C", ClusterKB: 8, RotdelayMs: 4, UFSVersion: "4.1", FreeBehind: false, WriteLimit: true}
}

// RunD approximates a stock SunOS 4.1 installation.
func RunD() RunConfig {
	return RunConfig{Name: "D", ClusterKB: 8, RotdelayMs: 4, UFSVersion: "4.1", FreeBehind: false, WriteLimit: false}
}

// Runs returns all four configurations in paper order.
func Runs() []RunConfig { return []RunConfig{RunA(), RunB(), RunC(), RunD()} }

// RunByName returns the paper's run with the given letter, in either
// case — the -run / -runs flag lookup of every command.
func RunByName(name string) (RunConfig, error) {
	for _, rc := range Runs() {
		if strings.EqualFold(rc.Name, strings.TrimSpace(name)) {
			return rc, nil
		}
	}
	return RunConfig{}, fmt.Errorf("unknown run %q", name)
}

// Options converts a run configuration into machine options. Extra
// tweaks (memory size, seed) can be applied to the result.
func (rc RunConfig) Options() Options {
	maxcontig := rc.ClusterKB / 8
	if maxcontig < 1 {
		maxcontig = 1
	}
	dc := driver.DefaultConfig()
	if rc.ClusterKB*1024 > dc.MaxPhys {
		// Run A's 120 KB clusters need a driver without the 16-bit
		// limitation.
		dc.MaxPhys = 128 << 10
	}
	o := Options{
		Mkfs: ufs.MkfsOpts{Rotdelay: rc.RotdelayMs, Maxcontig: maxcontig},
		Engine: core.Config{
			Clustered:  rc.UFSVersion == "4.1.1",
			ReadAhead:  true,
			FreeBehind: rc.FreeBehind,
		},
		Driver: &dc,
	}
	if rc.WriteLimit {
		o.Mount.WriteLimit = WriteLimitBytes
	}
	return o
}
