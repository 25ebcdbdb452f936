package faultlab

import (
	"testing"

	"ufsclust"
	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/vol"
)

// volWorkload is the degraded-mode test workload: small members (50 MB)
// and a small file keep every round trip quick.
func volWorkload(cfg vol.Config) Workload {
	p := disk.DefaultParams()
	p.Geom = disk.UniformGeometry(200, 8, 64, 3600)
	cfg.Member = &p
	w := Workload{Scenario: runA(19, ""), FileMB: 2, FsyncEvery: 256 << 10}
	w.Volume = &cfg
	return w
}

// TestDegradedMemberMirrorSurvives is the spindle-loss acceptance test
// on a mirror: a hard media fault on one member's first read must fail
// the member over with every byte intact (zero violations), and the
// harness must be able to rebuild the member and re-verify redundancy.
// The same loss on a stripe set has no second copy to serve from, so
// the only honest verdict is CORRUPT: acknowledged bytes are gone.
func TestDegradedMemberMirrorSurvives(t *testing.T) {
	for member := 0; member < 2; member++ {
		rep, err := RunDegradedMember(volWorkload(vol.Config{Level: vol.RAID1, Members: 2}), member)
		if err != nil {
			t.Fatalf("member %d: %v", member, err)
		}
		if rep.Outcome != OutcomeFull {
			t.Errorf("member %d: outcome %s (%s), want %s", member, rep.Outcome, rep.Detail, OutcomeFull)
		}
		if !rep.Failed {
			t.Errorf("member %d: volume never marked the faulted member dead", member)
		}
		if !rep.Rebuilt {
			t.Errorf("member %d: member not rebuilt after the degraded read", member)
		}
	}
}

func TestDegradedMemberRAID5Survives(t *testing.T) {
	rep, err := RunDegradedMember(volWorkload(vol.Config{Level: vol.RAID5, Members: 4}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeFull || !rep.Failed || !rep.Rebuilt {
		t.Fatalf("RAID-5 spindle loss: %+v, want full/failed/rebuilt", *rep)
	}
}

// TestDegradedFromBootRAID5SequentialWrite writes the workload on an
// array that boots with one spindle already dead (either end of the
// parity rotation; every member is parity for a quarter of the rows and
// data for the rest). Row-aligned clustering hands the volume whole rows, which with a
// dead member take the degraded branch of writeRow (parity computed
// from the row, the dead chunk simply not written) rather than the
// full-stripe one; the file must read back intact on a recovery boot
// of the same degraded array, and rebuilding the member from what the
// survivors hold must restore the parity invariant.
func TestDegradedFromBootRAID5SequentialWrite(t *testing.T) {
	for _, member := range []int{0, 3} {
		w := volWorkload(vol.Config{Level: vol.RAID5, Members: 4, Degraded: []int{member}})
		st, err := RunToCrash(w, fault.Plan{})
		if err != nil {
			t.Fatalf("member %d: %v", member, err)
		}
		if st.Crashed || st.Acked != w.Size() {
			t.Fatalf("member %d: build did not complete (acked %d of %d)", member, st.Acked, w.Size())
		}
		rep, _, err := Recover(w, st)
		if err != nil {
			t.Fatalf("member %d: %v", member, err)
		}
		if rep.Outcome != OutcomeFull {
			t.Errorf("member %d: outcome %s (%s), want %s", member, rep.Outcome, rep.Detail, OutcomeFull)
		}
		m, err := w.boot(3, ufsclust.WithImage(st.Images...))
		if err != nil {
			t.Fatalf("member %d: %v", member, err)
		}
		if err := m.Vol.Rebuild(member); err != nil {
			t.Errorf("member %d: rebuild: %v", member, err)
		} else if bad, first := m.Vol.CheckParity(); bad > 0 {
			t.Errorf("member %d: %d bad parity spans after rebuild: %v", member, bad, first)
		}
		m.Close()
	}
}

func TestDegradedMemberStripeCorrupts(t *testing.T) {
	rep, err := RunDegradedMember(volWorkload(vol.Config{Level: vol.RAID0, Members: 2}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != OutcomeCorrupt {
		t.Fatalf("RAID-0 spindle loss: outcome %s (%s), want %s — a stripe set has no copy to fail over to",
			rep.Outcome, rep.Detail, OutcomeCorrupt)
	}
	if rep.Failed {
		t.Fatal("RAID-0 marked a member failed; non-redundant levels must surface the error instead")
	}
}

// TestSweepDegradedMirrorAcceptance is the acceptance gate for crash
// consistency on an already-degraded array: 50 power cuts across the
// write cell on a two-way mirror whose second spindle is dead from
// boot. Every recovery must uphold the same durability contract as the
// single-drive sweep — the dead mirror side must never surface stale
// bytes or fail repair.
func TestSweepDegradedMirrorAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("50-cut degraded-mirror sweep in -short mode")
	}
	w := volWorkload(vol.Config{Level: vol.RAID1, Members: 2, Degraded: []int{1}})
	sr, err := Sweep(w, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Reports) != 50 {
		t.Fatalf("%d reports, want 50", len(sr.Reports))
	}
	if v := sr.Violations(); len(v) != 0 {
		for _, r := range v {
			t.Errorf("cut %v (acked %d): %s: %s", r.Cut, r.Acked, r.Outcome, r.Detail)
		}
	}
	torn := 0
	for _, r := range sr.Reports {
		if r.Outcome == OutcomeTornTail {
			torn++
		}
	}
	if torn == 0 {
		t.Error("no torn-tail outcome in 50 cuts; the sweep missed the mid-write region")
	}
}
