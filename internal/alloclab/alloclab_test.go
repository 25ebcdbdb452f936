package alloclab

import (
	"reflect"
	"testing"

	"ufsclust"
	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

func newFs(t *testing.T, cyls int) (*sim.Sim, *ufs.Fs, *disk.Disk) {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	dp := disk.DefaultParams()
	dp.Geom = disk.UniformGeometry(cyls, 8, 64, 3600)
	d := disk.New(s, "d0", dp)
	if _, err := ufs.Mkfs(d, ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 15}); err != nil {
		t.Fatal(err)
	}
	dr := driver.New(s, d, cpu.New(s, 12), driver.DefaultConfig())
	fs, err := ufs.Mount(s, cpu.New(s, 12), dr, ufs.MountOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return s, fs, d
}

func TestBestCaseLargeExtents(t *testing.T) {
	// Paper: "In the best case, the average extent size was 1.5MB in a
	// 13MB file." maxbpg caps per-group runs at ~2MB here; expect
	// megabyte-scale average extents.
	s, fs, _ := newFs(t, 192) // ~50 MB
	var rep *Report
	s.Spawn("lab", func(p *sim.Proc) {
		var err error
		rep, err = BestCase(p, fs, 13<<20)
		if err != nil {
			t.Errorf("best case: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.FileBytes != 13<<20 {
		t.Fatalf("file bytes = %d", rep.FileBytes)
	}
	if avg := rep.AvgExtent(); avg < 512<<10 {
		t.Errorf("best-case average extent = %dKB, want >= 512KB (%s)", avg>>10, rep)
	}
	if len(rep.Extents) > 26 {
		t.Errorf("best case produced %d extents for 13MB", len(rep.Extents))
	}
}

func TestWorstCaseSmallExtentsButUsable(t *testing.T) {
	// Paper: "In the worst case, the average extent size was 62KB in a
	// 16MB file" on a fragmented, 85%-full partition. Expect extents
	// around tens of KB — far smaller than best case, far larger than
	// one block.
	s, fs, _ := newFs(t, 192)
	var best, worst *Report
	s.Spawn("lab", func(p *sim.Proc) {
		var err error
		best, err = BestCase(p, fs, 4<<20)
		if err != nil {
			t.Errorf("best: %v", err)
			return
		}
		// On this ~45MB test fs, 80% full leaves ~5MB above the minfree
		// reserve; the paper's 85%-of-400MB leaves room for its 16MB.
		worst, err = WorstCase(p, fs, 4<<20, AgeOpts{TargetFull: 0.80, Churn: 3})
		if err != nil {
			t.Errorf("worst: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if worst.FileBytes < 3<<20 {
		t.Fatalf("worst-case file only reached %d bytes", worst.FileBytes)
	}
	avg := worst.AvgExtent()
	if avg >= best.AvgExtent() {
		t.Errorf("fragmentation did not shrink extents: worst %d >= best %d", avg, best.AvgExtent())
	}
	if avg < 2*8192 {
		t.Errorf("worst-case average extent = %dKB: allocator degraded to single blocks (%s)", avg>>10, worst)
	}
	if avg > 1<<20 {
		t.Errorf("worst-case average extent = %dKB: aging did not fragment (%s)", avg>>10, worst)
	}
}

func TestAgedFsStillConsistent(t *testing.T) {
	s, fs, d := newFs(t, 96)
	s.Spawn("lab", func(p *sim.Proc) {
		if err := Age(p, fs, AgeOpts{TargetFull: 0.7, Churn: 2}); err != nil {
			t.Errorf("age: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	fs.SyncImage()
	rep, err := ufs.Fsck(d)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		max := len(rep.Problems)
		if max > 10 {
			max = 10
		}
		t.Fatalf("aged fs inconsistent: %v", rep.Problems[:max])
	}
}

func TestMeasureFileCountsTailFragments(t *testing.T) {
	s, fs, _ := newFs(t, 96)
	s.Spawn("lab", func(p *sim.Proc) {
		ip, err := allocFile(p, fs, "/tail", 8192+3000)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		rep, err := MeasureFile(p, fs, ip)
		if err != nil {
			t.Errorf("measure: %v", err)
			return
		}
		var sum int64
		for _, e := range rep.Extents {
			sum += e
		}
		if sum != 8192+3072 { // tail rounded to 3 fragments
			t.Errorf("extent bytes = %d, want 11264", sum)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepDeterministicAcrossWorkers pins the sweep contract: the
// parallel aging sweep produces exactly the serial results, case for
// case, because every case is an independent machine.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	cases := []Case{
		{FileBytes: 2 << 20, Age: AgeOpts{TargetFull: 0.6, Churn: 1}},
		{FileBytes: 2 << 20, Age: AgeOpts{TargetFull: 0.8, Churn: 1}},
	}
	sc := ufsclust.Scenario{Run: ufsclust.RunA()}
	serial, err := SweepWorstCase(sc, cases, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SweepWorstCase(sc, cases, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Extents, parallel[i].Extents) {
			t.Fatalf("case %d: serial extents %v != parallel extents %v",
				i, serial[i].Extents, parallel[i].Extents)
		}
	}
	if serial[0].AvgExtent() <= serial[1].AvgExtent() {
		t.Logf("note: avg extent did not shrink with fill (%d vs %d) — small config",
			serial[0].AvgExtent(), serial[1].AvgExtent())
	}
}

// TestAllocLabRefusesNonMeasurements: a file size that is not positive,
// an aging target outside (0, 1), negative churn, and an aged file
// system with no room left for the file used to come back as a report —
// 0 extents in a 0 MB file, or the extents of whatever part of the file
// fit — instead of an error.
func TestAllocLabRefusesNonMeasurements(t *testing.T) {
	sc := ufsclust.Scenario{Run: ufsclust.RunA()}
	for _, c := range []Case{
		{FileBytes: 0},
		{FileBytes: -1 << 20},
		{FileBytes: 0, Age: AgeOpts{TargetFull: 0.85, Churn: 3}},
		{FileBytes: 16 << 20, Age: AgeOpts{TargetFull: -1, Churn: 3}},
		{FileBytes: 16 << 20, Age: AgeOpts{TargetFull: 1, Churn: 3}},
		{FileBytes: 16 << 20, Age: AgeOpts{TargetFull: 0.85, Churn: -2}},
		{FileBytes: 16 << 20, Age: AgeOpts{TargetFull: 0.85, MeanFileKB: 2}},
	} {
		if rep, err := Measure(sc, c); err == nil {
			t.Errorf("%+v: measured %s, want an error", c, rep)
		}
	}
	// 90 % is the minfree ceiling: the aged file system has no room for
	// the file. A small disk keeps the aging cheap.
	for _, full := range []float64{0.9, 0.95} {
		s, fs, _ := newFs(t, 96)
		s.Spawn("lab", func(p *sim.Proc) {
			if rep, err := WorstCase(p, fs, 4<<20, AgeOpts{TargetFull: full, Churn: 1}); err == nil {
				t.Errorf("%.0f%% full: measured %s, want an error", full*100, rep)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
