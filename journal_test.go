package ufsclust

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ufsclust/internal/core"
	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
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
	m.VM.Adversary = adversary
	if m.FS.J == nil {
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

// TestJournalBeatsSyncMetadataOnSmallFiles is the journal's placement
// claim as a gate: a 32-file create / write 5 KB / fsync / read loop,
// then removal of every file, on RunA at seed 1 finishes in less
// virtual time with the journal than with synchronous metadata writes,
// and every journaled fsync keeps the arm within a few cylinders — the
// log sits in group 0 beside the inodes and data the fsync makes
// durable, so no fsync pays a long seek to commit.
func TestJournalBeatsSyncMetadataOnSmallFiles(t *testing.T) {
	const files, maxSpread = 32, 4 // spread in cylinders
	run := func(opts ...Option) (elapsed sim.Time, spread int) {
		m, err := New(RunA(), append(opts, WithSeed(1))...)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		geom := m.Vol.Geom()
		inFsync, lo, hi := false, 0, 0
		m.Tel.Bus.Subscribe(func(ev telemetry.Event) {
			if inFsync && ev.Kind == telemetry.EvIOStart {
				c := geom.Locate(ev.Sector).Cyl
				lo, hi = min(lo, c), max(hi, c)
			}
		})
		// loop runs in the simulated process; it reports its first
		// failure instead of stopping the test from there.
		loop := func(p *sim.Proc) error {
			start := m.Sim.Now()
			dip, err := m.FS.Mkdir(p, "/d")
			if err != nil {
				return err
			}
			m.FS.Iput(p, dip)
			data, got := make([]byte, 5000), make([]byte, 5000)
			for i := 0; i < files; i++ {
				f, err := m.Engine.Create(p, fmt.Sprintf("/d/f%02d", i))
				if err != nil {
					return err
				}
				if _, err := f.Write(p, 0, data); err != nil {
					return err
				}
				inFsync, lo, hi = true, geom.Cylinders(), -1
				err = f.Fsync(p)
				inFsync, spread = false, max(spread, hi-lo)
				if err != nil {
					return err
				}
				if _, err := f.Read(p, 0, got); err != nil {
					return err
				}
			}
			for i := 0; i < files; i++ {
				if err := m.Engine.Remove(p, fmt.Sprintf("/d/f%02d", i)); err != nil {
					return err
				}
			}
			elapsed = m.Sim.Now() - start
			return nil
		}
		var loopErr error
		if err := m.Run(func(p *sim.Proc) { loopErr = loop(p) }); err != nil || loopErr != nil {
			t.Fatal(err, loopErr)
		}
		return elapsed, spread
	}
	syncTime, _ := run()
	walTime, spread := run(WithJournal(wal.Config{}))
	t.Logf("journaled %v, synchronous %v; widest journaled fsync %d cylinders", walTime, syncTime, spread)
	if walTime >= syncTime {
		t.Errorf("journaled loop took %v, synchronous metadata %v: the journal loses the workload it exists for", walTime, syncTime)
	}
	if spread > maxSpread {
		t.Errorf("a journaled fsync's requests span %d cylinders, want at most %d", spread, maxSpread)
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
	if m.FS.J != nil {
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

// TestFreedIndirectBlockStaysFreed is the reuse-after-free regression
// on both machine kinds: truncate dirties a file's indirect block while
// clearing its pointers and then frees it, and the next file that is
// given that block for data must read back its own bytes — neither the
// cache's dirty copy nor the journal's committed image of the freed
// block may be written over them later.
func TestFreedIndirectBlockStaysFreed(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"unjournaled", nil},
		{"journaled", []Option{WithJournal(wal.Config{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(RunA(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			m.VM.Adversary = adversary
			defer m.Close()
			fill := func(n int, v byte) []byte {
				b := make([]byte, n)
				for i := range b {
					b[i] = v ^ byte(i*7)
				}
				return b
			}
			want := fill(16<<10, 0xB0)
			err = m.Run(func(p *sim.Proc) {
				must := func(err error) {
					if err != nil {
						t.Fatal(err)
					}
				}
				write := func(path string, data []byte, fsync bool) *core.File {
					f, err := m.Engine.Create(p, path)
					must(err)
					_, err = f.Write(p, 0, data)
					must(err)
					if fsync {
						must(f.Fsync(p))
					}
					return f
				}
				// /a is long enough to need an indirect block; removing
				// it frees that block with a dirty cached copy.
				a := write("/a", fill(200<<10, 0xA0), true)
				ib := a.Inode().D.IB[0]
				if ib == 0 {
					t.Fatal("/a has no indirect block")
				}
				must(m.Engine.Remove(p, "/a"))
				write("/c", fill(96<<10, 0xC0), false)
				b := write("/b", want, true)
				reused := false
				for _, fsbn := range b.Inode().D.DB[:2] {
					reused = reused || fsbn == ib
				}
				if !reused {
					t.Fatalf("/b at %v does not reuse /a's indirect block %d", b.Inode().D.DB[:2], ib)
				}
				must(m.FS.Sync(p))
				must(b.Purge(p))
				got := make([]byte, len(want))
				_, err := b.Read(p, 0, got)
				must(err)
				for blk := 0; blk < len(want); blk += 8 << 10 {
					if !bytes.Equal(got[blk:blk+8<<10], want[blk:blk+8<<10]) {
						t.Errorf("/b block %d reads back wrong", blk/(8<<10))
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestImageBootReplaysCommittedLog boots a journaled image whose last
// fsync lives only in the log, once with WithImage and once with
// WithRecovery. Either boot replays the log before mounting, so the
// fsync'd file is there with its bytes; a boot that mounted over the
// stale home copies would lose it, and could later replay those records
// over newer metadata.
func TestImageBootReplaysCommittedLog(t *testing.T) {
	donor, err := New(RunA(), WithJournal(wal.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	donor.VM.Adversary = adversary
	defer donor.Close()
	data := bytes.Repeat([]byte("fsync'd "), 640)
	if err := donor.Run(func(p *sim.Proc) {
		f, err := donor.Engine.Create(p, "/x")
		if err == nil {
			_, err = f.Write(p, 0, data)
		}
		if err == nil {
			err = f.Fsync(p)
		}
		if err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	imgs := donor.Vol.Snapshot()
	for _, b := range []struct {
		name string
		boot Option
	}{{"image", WithImage(imgs...)}, {"recovery", WithRecovery(imgs...)}} {
		name := b.name
		m, err := New(RunA(), b.boot)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m.VM.Adversary = adversary
		if m.ReplayLog == nil || m.ReplayLog.Txns == 0 {
			t.Errorf("%s: boot replayed no transaction: %v", name, m.ReplayLog)
		}
		if err := m.Run(func(p *sim.Proc) {
			f, err := m.Engine.Open(p, "/x")
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			got := make([]byte, len(data)+1)
			if n, err := f.Read(p, 0, got); err != nil || !bytes.Equal(got[:n], data) {
				t.Errorf("%s: read %d bytes (%v), want the %d fsync'd ones", name, n, err, len(data))
			}
		}); err != nil {
			t.Fatal(err)
		}
		m.Close()
	}
}

// TestJournalWriteErrorFailsLaterFsyncs hard-fails the second write in
// the log region past its superblock: Create /pre commits, and the
// commit of Create /a never reaches the platter. Replay stops at that
// hole, so the file system must then refuse every later operation —
// Create /b, and the fsync of /pre's data — as an unjournaled mount
// does after a lost metadata write: a nil would be a promise no log
// record backs, and a boot from the platters would not have it.
func TestJournalWriteErrorFailsLaterFsyncs(t *testing.T) {
	probe, err := New(RunA(), WithJournal(wal.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	sb := probe.FS.SB
	base := sb.FsbToDb(sb.LogStart)
	end := base + int64(sb.LogFrags)*int64(sb.Fsize)/disk.SectorSize - 1
	probe.Close()

	m, err := New(RunA(), WithJournal(wal.Config{}), WithFaultPlan(fault.Plan{Rules: []fault.Rule{{
		Match: fault.Match{Nth: 2, RW: fault.Writes, SectorLo: base + 1, SectorHi: end},
		Kind:  fault.MediaHard,
	}}}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var createPre, createA, createB, fsyncPre error
	if err := m.Run(func(p *sim.Proc) {
		var pre *core.File
		if pre, createPre = m.Engine.Create(p, "/pre"); createPre != nil {
			return
		}
		_, createA = m.Engine.Create(p, "/a")
		_, createB = m.Engine.Create(p, "/b")
		if _, err := pre.Write(p, 0, make([]byte, 8192)); err != nil {
			fsyncPre = err
			return
		}
		fsyncPre = pre.Fsync(p)
	}); err != nil {
		t.Fatal(err)
	}
	if createPre != nil {
		t.Fatalf("Create /pre = %v before any fault", createPre)
	}
	for _, c := range []struct {
		what string
		err  error
	}{{"Create /a", createA}, {"Create /b", createB}, {"fsync of /pre", fsyncPre}} {
		if !errors.Is(c.err, disk.ErrMedia) {
			t.Errorf("%s = %v, want the log write's media error", c.what, c.err)
		}
	}
}
