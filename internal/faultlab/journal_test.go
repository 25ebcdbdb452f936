package faultlab

import (
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vol"
)

// TestJournaledCrashPointProperty is the journaled twin of the core
// crash-point property: wherever the cut lands, log replay alone (no
// full-image repair) must leave a consistent file system holding the
// acknowledged prefix intact. The 32 KB fsync interval commits the same
// inode and indirect blocks again and again, so most cuts land with
// sub-block records of them on the log.
func TestJournaledCrashPointProperty(t *testing.T) {
	for _, tc := range []struct {
		name       string
		fsyncEvery int
	}{
		{"per-record", 256 << 10},
		{"fsync-32k", 32 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := Workload{Scenario: runA(7, "wal"), FileMB: 2, FsyncEvery: tc.fsyncEvery}
			sr, err := Sweep(w, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range sr.Reports {
				if r.Outcome.Violation() {
					t.Errorf("cut %v (acked %d): %s: %s", r.Cut, r.Acked, r.Outcome, r.Detail)
				}
				if r.RecoveryBound == 0 {
					t.Errorf("cut %v: no replay accounting on a journaled recovery", r.Cut)
				}
				if r.RecoverySectorsRead > r.RecoveryBound {
					t.Errorf("cut %v: recovery read %d sectors, bound %d", r.Cut, r.RecoverySectorsRead, r.RecoveryBound)
				}
			}
		})
	}
}

// TestJournaledSweepWriteCellAcceptance is the tentpole acceptance
// gate: 50 power cuts across the full 16 MB IObench write cell on a
// journaled machine — zero durability violations, and every recovery
// bounded by the log region size rather than the image size.
func TestJournaledSweepWriteCellAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("50-cut 16 MB journaled sweep in -short mode")
	}
	w := Workload{Scenario: runA(42, "wal"), FileMB: 16, FsyncEvery: 1 << 20}
	sr, err := Sweep(w, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := sr.Violations(); len(v) != 0 {
		t.Fatalf("%d crash-consistency violations:\n%s", len(v), sr.Format())
	}
	for _, r := range sr.Reports {
		if r.RecoverySectorsRead > r.RecoveryBound {
			t.Errorf("cut %v: recovery read %d sectors, log is only %d", r.Cut, r.RecoverySectorsRead, r.RecoveryBound)
		}
	}
	t.Logf("\n%s", sr.Format())
}

// countingDev counts offline sector reads through a Device — the
// instrument for comparing recovery costs without wall clocks.
type countingDev struct {
	disk.Device
	reads int64
}

func (c *countingDev) ReadImage(sector int64, buf []byte) {
	c.reads += int64(len(buf)+disk.SectorSize-1) / disk.SectorSize
	c.Device.ReadImage(sector, buf)
}

// crashMidRun cuts the workload at roughly half its uncut duration and
// returns the frozen state.
func crashMidRun(t *testing.T, w Workload) *CrashState {
	t.Helper()
	base, err := RunToCrash(w, fault.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunToCrash(w, fault.Plan{Rules: []fault.Rule{fault.CutAtTime(base.End / 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Crashed {
		t.Fatal("mid-run cut never fired")
	}
	return st
}

// TestJournaledRecoveryCostBounded pins the economics of the journal:
// replay reads at most the log region, the bound does not grow with
// the image, and on the 16 MB write cell replay reads strictly fewer
// sectors than the full-image ufs.Repair of the same crash.
func TestJournaledRecoveryCostBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("16 MB recovery-cost comparison in -short mode")
	}
	recoverAt := func(fileMB int) *Report {
		w := Workload{Scenario: runA(42, "wal"), FileMB: fileMB, FsyncEvery: 1 << 20}
		st := crashMidRun(t, w)
		rep, _, err := Recover(w, st)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Outcome.Violation() {
			t.Fatalf("%d MB: %s: %s", fileMB, rep.Outcome, rep.Detail)
		}
		return rep
	}

	small, big := recoverAt(4), recoverAt(16)
	for _, rep := range []*Report{small, big} {
		if rep.RecoveryBound == 0 || rep.RecoverySectorsRead > rep.RecoveryBound {
			t.Fatalf("replay read %d sectors against bound %d", rep.RecoverySectorsRead, rep.RecoveryBound)
		}
	}
	// Image-size independence: quadrupling the file leaves the bound
	// untouched — it is a property of the log, not the image.
	if small.RecoveryBound != big.RecoveryBound {
		t.Fatalf("recovery bound moved with image size: %d at 4 MB, %d at 16 MB", small.RecoveryBound, big.RecoveryBound)
	}

	// The same 16 MB crash without a journal recovers by full-image
	// repair; count its reads through a wrapped device.
	wu := Workload{Scenario: runA(42, ""), FileMB: 16, FsyncEvery: 1 << 20}
	st := crashMidRun(t, wu)
	s := sim.New(1)
	defer s.Close()
	d := disk.New(s, "sd0", disk.DefaultParams())
	d.Restore(st.Images[0])
	cd := &countingDev{Device: d}
	if _, err := ufs.Repair(cd); err != nil {
		t.Fatal(err)
	}
	if big.RecoverySectorsRead >= cd.reads {
		t.Fatalf("journal replay read %d sectors, full-image repair read %d — replay must be strictly cheaper",
			big.RecoverySectorsRead, cd.reads)
	}
	t.Logf("replay read %d sectors (bound %d); ufs.Repair read %d", big.RecoverySectorsRead, big.RecoveryBound, cd.reads)
}

// TestJournaledDegradedMirrorSweep extends the sweep matrix to a
// journaled machine on an already-degraded two-way mirror: the dead
// spindle changes nothing about the durability contract or the replay
// bound.
func TestJournaledDegradedMirrorSweep(t *testing.T) {
	w := volWorkload(vol.Config{Level: vol.RAID1, Members: 2, Degraded: []int{1}})
	w.Journal = "wal"
	cuts := 10
	if !testing.Short() {
		cuts = 50
	}
	sr, err := Sweep(w, cuts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v := sr.Violations(); len(v) != 0 {
		t.Fatalf("%d violations on journaled degraded mirror:\n%s", len(v), sr.Format())
	}
	for _, r := range sr.Reports {
		if r.RecoveryBound == 0 || r.RecoverySectorsRead > r.RecoveryBound {
			t.Errorf("cut %v: replay accounting %d/%d", r.Cut, r.RecoverySectorsRead, r.RecoveryBound)
		}
	}
}
