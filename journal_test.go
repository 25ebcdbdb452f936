package ufsclust

import (
	"bytes"
	"strings"
	"testing"

	"ufsclust/internal/sim"
	"ufsclust/internal/wal"
)

// TestJournaledMachineEndToEnd drives a journaled machine through the
// facade: the log region is reserved at mkfs, metadata updates commit
// through the WAL, the data still round-trips, and the image checks
// clean.
func TestJournaledMachineEndToEnd(t *testing.T) {
	o := RunA().Options()
	WithJournal(wal.Config{})(&o)
	m, err := NewMachine(o)
	if err != nil {
		t.Fatal(err)
	}
	if m.WAL == nil {
		t.Fatal("WithJournal machine has no WAL")
	}
	if m.FS.SB.LogFrags == 0 {
		t.Fatal("journaled mkfs reserved no log region")
	}
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 13)
	}
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Create(p, "/journaled")
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(p, 0, data)
		f.Fsync(p)
		got := make([]byte, len(data))
		f.Read(p, 0, got)
		if !bytes.Equal(got, data) {
			t.Error("data corrupted through the journaled stack")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap := m.Snapshot(); snap.Get("wal.commits") == 0 {
		t.Error("fsync on a journaled machine committed nothing to the log")
	}
	m.FS.SyncImage()
	rep, err := m.Fsck()
	if err != nil || !rep.Clean() {
		t.Fatalf("fsck: %v %v", err, rep.Problems)
	}
}

// TestDefaultMachineHasNoJournal pins the default-off contract: without
// WithJournal there is no log region, no WAL, and no wal.* metrics —
// the pinned metrics manifest and every pre-journal golden stream
// depend on this.
func TestDefaultMachineHasNoJournal(t *testing.T) {
	m, err := New(RunA())
	if err != nil {
		t.Fatal(err)
	}
	if m.WAL != nil {
		t.Error("default machine grew a WAL")
	}
	if m.FS.SB.LogFrags != 0 {
		t.Error("default mkfs reserved a log region")
	}
	for _, e := range m.Snapshot().Entries {
		if strings.HasPrefix(e.Name, "wal.") || e.Name == "fs.journal_meta_writes" {
			t.Errorf("default machine registered journal metric %s", e.Name)
		}
	}
}
