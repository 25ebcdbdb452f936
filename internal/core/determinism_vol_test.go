package core

import (
	"bytes"
	"fmt"
	"testing"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vm"
	"ufsclust/internal/vol"
)

// newVolRig is newRig with the single drive replaced by a composed
// volume: the engine, file system, and driver are wired identically,
// but requests fan out across member spindles whose service processes
// interleave in the scheduler — exactly the extra concurrency the
// determinism gate must prove reproducible. wrap, when non-nil, stands
// between the volume and everything above it (the row-cut tests mask
// the device's write-unit hint this way).
func newVolRig(t *testing.T, mkfs ufs.MkfsOpts, cfg Config, writeLimit int64, vc vol.Config, wrap func(disk.Device) disk.Device) (*rig, *vol.Volume) {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	cm := cpu.New(s, 12)
	if vc.Member == nil {
		dp := disk.DefaultParams()
		dp.Geom = disk.UniformGeometry(96, 8, 64, 3600) // ~25 MB per member
		vc.Member = &dp
	}
	vl, err := vol.New(s, "vol0", vc)
	if err != nil {
		t.Fatal(err)
	}
	var dev disk.Device = vl
	if wrap != nil {
		dev = wrap(vl)
	}
	dc := driver.DefaultConfig()
	dc.MaxPhys = 128 << 10
	dr := driver.New(s, dev, cm, dc)
	if _, err := ufs.Mkfs(dev, mkfs); err != nil {
		t.Fatal(err)
	}
	fs, err := ufs.Mount(s, cm, dr, ufs.MountOpts{WriteLimit: writeLimit})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(s, cm, vm.Config{MemBytes: 8 << 20})
	eng := NewEngine(s, cm, v, fs, cfg)
	return &rig{s: s, dr: dr, fs: fs, v: v, eng: eng}, vl
}

// traceVolRun is traceRun on a volume-backed rig.
func traceVolRun(t *testing.T, vc vol.Config) (trace string, stats Stats, now sim.Time, fsck string) {
	t.Helper()
	mk, cfg := clusteredOpts()
	r, vl := newVolRig(t, mk, cfg, 240<<10, vc, nil)
	var tw bytes.Buffer
	r.s.TraceW = &tw
	determinismWorkload(t, r)
	r.fs.SyncImage()
	rep, err := ufs.Fsck(vl)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("workload left an inconsistent file system: %v", rep.Problems)
	}
	return tw.String(), r.eng.Stats, r.s.Now(), fmt.Sprintf("%+v", *rep)
}

// TestSameSeedReplaysByteIdenticalOnVolumes extends the determinism
// gate over composed devices. A volume machine runs one service
// process per spindle plus parity read-modify-write phase chains in
// completion context, so any ordering leak in the volume layer (map
// iteration over members, unkeyed completion fan-in, ambient time)
// surfaces here as a trace divergence between same-seed runs.
func TestSameSeedReplaysByteIdenticalOnVolumes(t *testing.T) {
	for _, vc := range []vol.Config{
		{Level: vol.RAID0, Members: 3},
		{Level: vol.RAID1, Members: 2},
		{Level: vol.RAID5, Members: 3, StripeKB: 16}, // 32 KB rows: the row cut is live
	} {
		vc := vc
		t.Run(fmt.Sprintf("%s-x%d", vc.Level, vc.Members), func(t *testing.T) {
			trace1, stats1, now1, fsck1 := traceVolRun(t, vc)
			trace2, stats2, now2, fsck2 := traceVolRun(t, vc)
			if trace1 == "" {
				t.Fatal("empty scheduler trace: TraceW is not capturing")
			}
			if trace1 != trace2 {
				t.Errorf("scheduler traces diverge: %s", firstDiff(trace1, trace2))
			}
			if stats1 != stats2 {
				t.Errorf("engine stats diverge:\nrun1: %+v\nrun2: %+v", stats1, stats2)
			}
			if now1 != now2 {
				t.Errorf("final virtual time diverges: %v vs %v", now1, now2)
			}
			if fsck1 != fsck2 {
				t.Errorf("fsck reports diverge: %s", firstDiff(fsck1, fsck2))
			}
		})
	}
}
