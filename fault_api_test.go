package ufsclust

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

var updateManifest = flag.Bool("update-manifest", false, "rewrite the testdata/metrics_manifest*.txt files")

// TestMetricsManifest pins the full set of registered metric and
// histogram names on every machine shape: the default single drive in
// testdata/metrics_manifest.txt, each composed volume and the journaled
// machine beside it. A new counter (or a renamed one) must show up here
// deliberately — regenerate with -update-manifest — so dashboards and
// tests reading Snapshot names never silently lose a series.
func TestMetricsManifest(t *testing.T) {
	for _, sh := range []struct {
		file string
		opts []Option
	}{
		{"metrics_manifest.txt", nil},
		{"metrics_manifest_raid0x3.txt", []Option{WithVolume(vol.Config{Level: vol.RAID0, Members: 3})}},
		{"metrics_manifest_raid1x2.txt", []Option{WithVolume(vol.Config{Level: vol.RAID1, Members: 2})}},
		{"metrics_manifest_raid5x3.txt", []Option{WithVolume(vol.Config{Level: vol.RAID5, Members: 3, StripeKB: 16})}},
		{"metrics_manifest_wal.txt", []Option{WithJournal(wal.Config{})}},
	} {
		m, err := New(RunA(), sh.opts...)
		if err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		m.Close()
		var sb strings.Builder
		for _, e := range snap.Entries {
			kind := "counter"
			if e.Gauge {
				kind = "gauge"
			}
			fmt.Fprintf(&sb, "%s %s\n", e.Name, kind)
		}
		for _, h := range snap.Hists {
			fmt.Fprintf(&sb, "%s hist\n", h.Name)
		}
		got := sb.String()
		path := filepath.Join("testdata", sh.file)
		if *updateManifest {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-manifest)", err)
		}
		if got != string(want) {
			t.Errorf("metric registry drifted from %s (regenerate with -update-manifest):\ngot:\n%s\nwant:\n%s",
				path, got, want)
		}
	}
}

func TestFaultCountersMeasuredBySnapshotDelta(t *testing.T) {
	// A transient write failure bumps the fault and retry counters, and
	// Snapshot/Delta isolates the measured phase without resetting
	// anything — the pattern that replaced the removed ResetStats shim.
	m, err := New(RunA(), WithFaultPlan(fault.Plan{Rules: []fault.Rule{
		fault.FailNth(1, fault.Writes, 1),
	}}))
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
		if _, err := f.Write(p, 0, make([]byte, 8192)); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(p); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	post := m.Snapshot()
	if post.Get("fault.media_injected") != 1 {
		t.Fatalf("fault.media_injected = %d, want 1", post.Get("fault.media_injected"))
	}
	if post.Get("driver.retries") != 1 {
		t.Fatalf("driver.retries = %d, want 1", post.Get("driver.retries"))
	}
	// A quiet interval deltas to zero for every fault-path counter: no
	// residue, no interference between back-to-back measurements.
	quiet := m.Snapshot().Delta(post)
	for _, name := range []string{
		"fault.media_injected", "fault.cuts",
		"driver.retries", "driver.giveups", "disk.media_errors",
	} {
		if v := quiet.Get(name); v != 0 {
			t.Errorf("%s = %d across a quiet interval, want 0", name, v)
		}
	}
}

func TestWithFaultPlanHardErrorReachesCaller(t *testing.T) {
	// A hard media error on a data write surfaces through fsync as a
	// typed error chain: core → ufs → driver.DevError → disk.ErrMedia.
	m, err := New(RunA(), WithFaultPlan(fault.Plan{Rules: []fault.Rule{
		fault.FailNthHard(1, fault.Writes),
	}}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var ioErr error
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Create(p, "/f")
		if err != nil {
			// The very first write in this run may already be the
			// metadata write the plan kills.
			ioErr = err
			return
		}
		if _, err := f.Write(p, 0, make([]byte, 64<<10)); err != nil {
			ioErr = err
			return
		}
		ioErr = f.Fsync(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ioErr == nil {
		t.Fatal("hard media error never surfaced")
	}
	if !errors.Is(ioErr, disk.ErrMedia) {
		t.Fatalf("error %v does not unwrap to disk.ErrMedia", ioErr)
	}
}

func TestInvalidFaultPlanRejectedAtConstruction(t *testing.T) {
	_, err := New(RunA(), WithFaultPlan(fault.Plan{Rules: []fault.Rule{
		{Kind: fault.PowerCut, At: -1},
	}}))
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	// A machine booted from another machine's platter snapshot sees the
	// same file system — and the snapshot is a deep copy, so the donor
	// writing afterwards does not leak through.
	m1, err := New(RunA())
	if err != nil {
		t.Fatal(err)
	}
	m1.VM.Adversary = adversary
	defer m1.Close()
	payload := bytes.Repeat([]byte("extent"), 4096)
	err = m1.Run(func(p *sim.Proc) {
		f, err := m1.Engine.Create(p, "/keep")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(p, 0, payload); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(p); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m1.FS.SyncImage()
	imgs := m1.Vol.Snapshot()

	// Donor keeps writing after the snapshot.
	err = m1.Run(func(p *sim.Proc) {
		f, err := m1.Engine.Create(p, "/after")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Write(p, 0, []byte("late")); err != nil {
			t.Error(err)
			return
		}
		if err := f.Fsync(p); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	m2, err := New(RunA(), WithImage(imgs...))
	if err != nil {
		t.Fatal(err)
	}
	m2.VM.Adversary = adversary
	defer m2.Close()
	err = m2.Run(func(p *sim.Proc) {
		f, err := m2.Engine.Open(p, "/keep")
		if err != nil {
			t.Errorf("open /keep: %v", err)
			return
		}
		got := make([]byte, len(payload))
		if _, err := f.Read(p, 0, got); err != nil {
			t.Errorf("read /keep: %v", err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("payload changed across snapshot/restore")
		}
		if _, err := m2.Engine.Open(p, "/after"); err == nil {
			t.Error("post-snapshot donor write leaked into the restored image")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := m2.Fsck(); err != nil || !rep.Clean() {
		t.Fatalf("restored image not clean: %v %v", err, rep)
	}
}
