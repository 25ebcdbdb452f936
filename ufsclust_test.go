package ufsclust

import (
	"bytes"
	"testing"

	"ufsclust/internal/sim"
)

func TestNewMachineDefaults(t *testing.T) {
	m, err := NewMachine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.CPU.MIPS != 12 {
		t.Errorf("MIPS = %v, want 12 (the paper's machine)", m.CPU.MIPS)
	}
	if got := m.VM.TotalPages() * 8192; got != 8<<20 {
		t.Errorf("memory = %d, want 8MB", got)
	}
	if mb := m.Disk.Geom().TotalBytes() >> 20; mb < 380 || mb > 420 {
		t.Errorf("disk = %dMB, want ~400MB", mb)
	}
}

func TestRunConfigsMatchFigure9(t *testing.T) {
	runs := Runs()
	if len(runs) != 4 {
		t.Fatalf("%d runs, want 4", len(runs))
	}
	a, b, c, d := runs[0], runs[1], runs[2], runs[3]
	if a.ClusterKB != 120 || a.RotdelayMs != 0 || a.UFSVersion != "4.1.1" || !a.FreeBehind || !a.WriteLimit {
		t.Errorf("run A = %+v", a)
	}
	if b.ClusterKB != 8 || b.RotdelayMs != 4 || b.UFSVersion != "4.1" || !b.FreeBehind || !b.WriteLimit {
		t.Errorf("run B = %+v", b)
	}
	if c.FreeBehind || !c.WriteLimit {
		t.Errorf("run C = %+v", c)
	}
	if d.FreeBehind || d.WriteLimit {
		t.Errorf("run D = %+v", d)
	}
}

func TestRunAOptionsRaiseMaxphys(t *testing.T) {
	o := RunA().Options()
	if o.Driver.MaxPhys < 120<<10 {
		t.Errorf("run A maxphys = %d, cannot carry 120KB clusters", o.Driver.MaxPhys)
	}
	if o.Mount.WriteLimit != WriteLimitBytes {
		t.Errorf("run A write limit = %d", o.Mount.WriteLimit)
	}
	if o.Mkfs.Maxcontig != 15 {
		t.Errorf("run A maxcontig = %d, want 15 (120KB/8KB)", o.Mkfs.Maxcontig)
	}
}

func TestEndToEndThroughFacade(t *testing.T) {
	for _, rc := range Runs() {
		m, err := New(rc)
		if err != nil {
			t.Fatalf("run %s: %v", rc.Name, err)
		}
		data := make([]byte, 256<<10)
		for i := range data {
			data[i] = byte(i * 31)
		}
		err = m.Run(func(p *sim.Proc) {
			f, err := m.Engine.Create(p, "/e2e")
			if err != nil {
				t.Errorf("run %s create: %v", rc.Name, err)
				return
			}
			f.Write(p, 0, data)
			f.Purge(p)
			got := make([]byte, len(data))
			f.Read(p, 0, got)
			if !bytes.Equal(got, data) {
				t.Errorf("run %s: data corrupted through full stack", rc.Name)
			}
		})
		if err != nil {
			t.Fatalf("run %s: %v", rc.Name, err)
		}
		rep, err := m.Fsck()
		if err != nil || !rep.Clean() {
			t.Fatalf("run %s fsck: %v %v", rc.Name, err, rep.Problems)
		}
	}
}

func TestOnDiskFormatIdenticalAcrossEngines(t *testing.T) {
	// The paper's constraint: the clustering engine changes no on-disk
	// structure. Write the same bytes through run A and run D onto
	// disks formatted identically (run D tuning), and compare images.
	images := make([][]byte, 0, 2)
	for _, engCfg := range []RunConfig{RunA(), RunD()} {
		o := engCfg.Options()
		// Same format for both: only the code path differs.
		o.Mkfs = RunD().Options().Mkfs
		o.Seed = 1
		m, err := NewMachine(o)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 128<<10)
		for i := range data {
			data[i] = byte(i * 7)
		}
		err = m.Run(func(p *sim.Proc) {
			f, err := m.Engine.Create(p, "/same")
			if err != nil {
				t.Error(err)
				return
			}
			f.Write(p, 0, data)
			f.Fsync(p)
		})
		if err != nil {
			t.Fatal(err)
		}
		m.FS.SB.Time = 0 // normalize timestamps (none are set, but be safe)
		m.FS.SyncImage()
		var buf bytes.Buffer
		if err := m.Disk.DumpImage(&buf); err != nil {
			t.Fatal(err)
		}
		images = append(images, buf.Bytes())
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Error("the two engines produced different on-disk images for the same writes")
	}
}

func TestSnapshotDeltaIsolatesMeasuredPhase(t *testing.T) {
	// Interval measurement is Snapshot-before / Snapshot-after / Delta —
	// nothing is reset, so back-to-back measurements on one machine
	// cannot interfere (the reason the ResetStats shim could go).
	m, err := New(RunA())
	if err != nil {
		t.Fatal(err)
	}
	pre := m.Snapshot()
	err = m.Run(func(p *sim.Proc) {
		f, _ := m.Engine.Create(p, "/x")
		f.Write(p, 0, make([]byte, 64<<10))
		f.Fsync(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	busy := m.Snapshot()
	if busy.Delta(pre).Get("disk.sectors_written") == 0 {
		t.Fatal("no disk activity in the measured interval")
	}
	if quiet := m.Snapshot().Delta(busy); quiet.Get("disk.sectors_written") != 0 {
		t.Fatal("quiet interval shows disk activity")
	}
}
