package vol_test

import (
	"fmt"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/vol"
)

// member returns a small drive template: 64 cyl x 2 heads x 32 spt =
// 4096 sectors = 2 MB per member, so whole-array scans stay cheap.
func member() *disk.Params {
	p := disk.DefaultParams()
	p.Geom = disk.UniformGeometry(64, 2, 32, 3600)
	return &p
}

func newVol(t *testing.T, seed int64, cfg vol.Config) (*sim.Sim, *vol.Volume) {
	t.Helper()
	s := sim.New(seed)
	t.Cleanup(s.Close)
	if cfg.Member == nil {
		cfg.Member = member()
	}
	v, err := vol.New(s, "vol0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, v
}

// volIO submits one request and blocks the calling process until it
// completes.
func volIO(p *sim.Proc, v *vol.Volume, sector int64, data []byte, write bool) error {
	r := &disk.Request{Sector: sector, Count: len(data) / disk.SectorSize, Write: write, Data: data}
	done := false
	var q sim.WaitQ
	r.Done = func() { done = true; q.WakeAll() }
	v.Submit(r)
	for !done {
		p.Block(&q)
	}
	return r.Err
}

func run(t *testing.T, s *sim.Sim, fn func(p *sim.Proc)) {
	t.Helper()
	s.Spawn("test", fn)
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// fill writes a deterministic nonzero pattern.
func fill(buf []byte, seed int64) {
	for i := range buf {
		buf[i] = byte((int64(i)*2654435761+seed)>>3) | 1
	}
}

func levels() []vol.Config {
	return []vol.Config{
		{Level: vol.Concat, Members: 2},
		{Level: vol.RAID0, Members: 3, StripeKB: 8},
		{Level: vol.RAID1, Members: 2},
		{Level: vol.RAID5, Members: 4, StripeKB: 8},
	}
}

// TestConfigValidation rejects senseless volumes.
func TestConfigValidation(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	bad := []vol.Config{
		{Level: vol.RAID5, Members: 2, Member: member()},                        // too few
		{Level: vol.RAID0, Members: 1, Member: member()},                        // too few
		{Level: vol.RAID0, Members: 2, StripeKB: 3, Member: member()},           // stripe does not divide capacity
		{Level: vol.RAID0, Members: 2, Degraded: []int{0}, Member: member()},    // no redundancy to degrade
		{Level: vol.RAID1, Members: 2, Degraded: []int{5}, Member: member()},    // member out of range
		{Level: vol.RAID5, Members: 3, Degraded: []int{0, 1}, Member: member()}, // beyond tolerance
	}
	for i, cfg := range bad {
		if _, err := vol.New(s, "bad", cfg); err == nil {
			t.Errorf("config %d (%s x%d) accepted, want error", i, cfg.Level, cfg.Members)
		}
	}
}

// TestGeometryAndChannels checks the synthetic geometry exposes exactly
// the data capacity and one service channel per spindle.
func TestGeometryAndChannels(t *testing.T) {
	msize := member().Geom.TotalSectors()
	want := map[vol.Level]int64{
		vol.Concat: 2 * msize,
		vol.RAID0:  3 * msize,
		vol.RAID1:  msize,
		vol.RAID5:  3 * msize, // 4 members, one chunk per row is parity
	}
	for _, cfg := range levels() {
		_, v := newVol(t, 1, cfg)
		if got := v.Geom().TotalSectors(); got != want[cfg.Level] {
			t.Errorf("%s: capacity %d sectors, want %d", cfg.Level, got, want[cfg.Level])
		}
		if v.Channels() != cfg.Members {
			t.Errorf("%s: %d channels, want %d", cfg.Level, v.Channels(), cfg.Members)
		}
	}
}

// TestLevelsReadBackWhatWasWritten is the shadow-model property test
// over every level: randomized online writes and reads, interleaved
// with offline image writes and reads, must always agree with a plain
// byte-array model of the volume — and on the redundant levels the
// redundancy invariant must hold after every acknowledged write.
func TestLevelsReadBackWhatWasWritten(t *testing.T) {
	for _, cfg := range levels() {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-x%d", cfg.Level, cfg.Members), func(t *testing.T) {
			s, v := newVol(t, 7, cfg)
			total := v.Geom().TotalSectors()
			shadow := make([]byte, total*disk.SectorSize)
			redundant := cfg.Level == vol.RAID1 || cfg.Level == vol.RAID5
			rnd := s.Rand
			run(t, s, func(p *sim.Proc) {
				for op := 0; op < 250; op++ {
					n := 1 + rnd.Int63n(64)
					sec := rnd.Int63n(total - n + 1)
					buf := make([]byte, n*disk.SectorSize)
					switch op % 4 {
					case 0, 1: // online write
						fill(buf, int64(op))
						if err := volIO(p, v, sec, buf, true); err != nil {
							t.Errorf("op %d: write: %v", op, err)
							return
						}
						copy(shadow[sec*disk.SectorSize:], buf)
					case 2: // offline write
						fill(buf, int64(op))
						v.WriteImage(sec, buf)
						copy(shadow[sec*disk.SectorSize:], buf)
					case 3: // read (online and offline agree with the shadow)
						if err := volIO(p, v, sec, buf, false); err != nil {
							t.Errorf("op %d: read: %v", op, err)
							return
						}
						if want := shadow[sec*disk.SectorSize : (sec+n)*disk.SectorSize]; !equal(buf, want) {
							t.Errorf("op %d: online read of [%d,%d) diverges from shadow", op, sec, sec+n)
							return
						}
					}
					if redundant {
						if bad, first := v.CheckParityRange(sec, n); bad > 0 {
							t.Errorf("op %d: redundancy violated after [%d,%d): %v", op, sec, sec+n, first)
							return
						}
					}
				}
			})
			// Whole-volume offline read against the shadow.
			img := make([]byte, len(shadow))
			v.ReadImage(0, img)
			if !equal(img, shadow) {
				t.Fatalf("%s: final image diverges from shadow", cfg.Level)
			}
			if redundant {
				if bad, first := v.CheckParity(); bad > 0 {
					t.Fatalf("%s: %d bad spans in final parity check: %v", cfg.Level, bad, first)
				}
				return
			}
			// A member pulled from a level with no redundancy is still
			// read by the timed path; the offline path must read the same
			// platter, not XOR unrelated members together.
			v.FailMember(0)
			v.ReadImage(0, img)
			if !equal(img, shadow) {
				t.Fatalf("%s: offline read after FailMember(0) fabricates bytes", cfg.Level)
			}
		})
	}
}

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRAID5ParityInvariant is the acceptance-criteria property test:
// over 1000 randomized writes (mixed sizes and alignments, so both the
// full-stripe and the read-modify-write paths fire constantly), the
// parity rows touched by every single acknowledged write must satisfy
// parity = XOR(data) the moment the write completes.
func TestRAID5ParityInvariant(t *testing.T) {
	cfg := vol.Config{Level: vol.RAID5, Members: 4, StripeKB: 8}
	s, v := newVol(t, 11, cfg)
	total := v.Geom().TotalSectors()
	rnd := s.Rand
	writes := 0
	run(t, s, func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			// Mix aligned full rows (stripe 16 sectors x 3 data chunks =
			// 48-sector rows) with arbitrary partial scribbles.
			var sec, n int64
			if i%5 == 0 {
				row := rnd.Int63n(total / 48)
				sec, n = row*48, 48
			} else {
				n = 1 + rnd.Int63n(96)
				sec = rnd.Int63n(total - n + 1)
			}
			buf := make([]byte, n*disk.SectorSize)
			fill(buf, int64(i))
			if err := volIO(p, v, sec, buf, true); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			writes++
			if bad, first := v.CheckParityRange(sec, n); bad > 0 {
				t.Errorf("write %d [%d,%d): parity invariant violated: %v", i, sec, sec+n, first)
				return
			}
		}
	})
	if writes != 1000 {
		t.Fatalf("completed %d writes, want 1000", writes)
	}
	if bad, first := v.CheckParity(); bad > 0 {
		t.Fatalf("%d bad spans in whole-array parity check: %v", bad, first)
	}
	if v.Stats.FullStripeWrites == 0 || v.Stats.ParityRMWRows == 0 {
		t.Fatalf("both write paths must fire: full-stripe=%d rmw=%d",
			v.Stats.FullStripeWrites, v.Stats.ParityRMWRows)
	}
}

// TestRAID5ConcurrentRMWKeepsParity drives overlapping partial-row
// writes from several concurrent processes — the shape a driver with
// one in-flight request per spindle produces naturally. Without the
// parity-row locks two read-modify-writes on one row both read the old
// parity and the later write-back erases the earlier delta; this test
// pins the serialization.
func TestRAID5ConcurrentRMWKeepsParity(t *testing.T) {
	cfg := vol.Config{Level: vol.RAID5, Members: 4, StripeKB: 8}
	s, v := newVol(t, 13, cfg)
	const writers = 6
	done := 0
	var wq sim.WaitQ
	for w := 0; w < writers; w++ {
		w := w
		s.Spawn(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			// All writers hammer rows 0..3 (48 sectors each) with
			// unaligned 8-sector writes at distinct offsets.
			for i := 0; i < 40; i++ {
				sec := int64((w*8 + i*16) % 184)
				buf := make([]byte, 8*disk.SectorSize)
				fill(buf, int64(w*1000+i))
				if err := volIO(p, v, sec, buf, true); err != nil {
					t.Errorf("writer %d op %d: %v", w, i, err)
					return
				}
			}
			done++
			wq.WakeAll()
		})
	}
	s.Spawn("checker", func(p *sim.Proc) {
		for done < writers {
			p.Block(&wq)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if bad, first := v.CheckParity(); bad > 0 {
		t.Fatalf("%d bad parity spans after concurrent RMW storm: %v", bad, first)
	}
	if v.Stats.ParityRMWRows == 0 {
		t.Fatal("storm never took the RMW path")
	}
}

// TestDegradedReadEquivalence kills each member of a redundant volume
// in turn and byte-compares a full degraded read against the healthy
// content: reconstruction must be invisible to the reader.
func TestDegradedReadEquivalence(t *testing.T) {
	for _, cfg := range []vol.Config{
		{Level: vol.RAID1, Members: 2},
		{Level: vol.RAID5, Members: 4, StripeKB: 8},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-x%d", cfg.Level, cfg.Members), func(t *testing.T) {
			s, v := newVol(t, 3, cfg)
			total := v.Geom().TotalSectors()
			healthy := make([]byte, total*disk.SectorSize)
			fill(healthy, 99)
			run(t, s, func(p *sim.Proc) {
				if err := volIO(p, v, 0, healthy, true); err != nil {
					t.Errorf("fill: %v", err)
				}
			})
			imgs := v.Snapshot()
			for dead := 0; dead < cfg.Members; dead++ {
				dcfg := cfg
				dcfg.Degraded = []int{dead}
				s2, v2 := newVol(t, 5, dcfg)
				if err := v2.Restore(imgs); err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(healthy))
				run(t, s2, func(p *sim.Proc) {
					if err := volIO(p, v2, 0, got, false); err != nil {
						t.Errorf("degraded read with sd%d dead: %v", dead, err)
					}
				})
				if !equal(got, healthy) {
					t.Fatalf("degraded read with sd%d dead diverges from healthy content", dead)
				}
				if cfg.Level == vol.RAID5 && v2.Stats.DegradedReads == 0 {
					t.Fatalf("sd%d dead: read of the whole volume never reconstructed", dead)
				}
			}
		})
	}
}

// TestDegradedWritesAndRebuild writes through a degraded RAID-5 array
// (exercising the reconstruct-overlay-rewrite row path), verifies the
// content, rebuilds the dead member, and requires the parity invariant
// to hold array-wide again.
func TestDegradedWritesAndRebuild(t *testing.T) {
	cfg := vol.Config{Level: vol.RAID5, Members: 4, StripeKB: 8}
	s, v := newVol(t, 17, cfg)
	total := v.Geom().TotalSectors()
	shadow := make([]byte, total*disk.SectorSize)
	fill(shadow, 1)
	rnd := s.Rand
	run(t, s, func(p *sim.Proc) {
		if err := volIO(p, v, 0, shadow, true); err != nil {
			t.Errorf("fill: %v", err)
			return
		}
		v.FailMember(2)
		for i := 0; i < 100; i++ {
			n := 1 + rnd.Int63n(96)
			sec := rnd.Int63n(total - n + 1)
			buf := make([]byte, n*disk.SectorSize)
			fill(buf, int64(1000+i))
			if err := volIO(p, v, sec, buf, true); err != nil {
				t.Errorf("degraded write %d: %v", i, err)
				return
			}
			copy(shadow[sec*disk.SectorSize:], buf)
		}
		got := make([]byte, len(shadow))
		if err := volIO(p, v, 0, got, false); err != nil {
			t.Errorf("degraded read-all: %v", err)
			return
		}
		if !equal(got, shadow) {
			t.Errorf("degraded content diverges from shadow")
		}
	})
	if v.Stats.DegradedWrites == 0 {
		t.Fatal("no degraded writes counted")
	}
	if err := v.Rebuild(2); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if bad, first := v.CheckParity(); bad > 0 {
		t.Fatalf("%d bad spans after rebuild: %v", bad, first)
	}
	img := make([]byte, len(shadow))
	v.ReadImage(0, img)
	if !equal(img, shadow) {
		t.Fatal("content diverges from shadow after rebuild")
	}
}

// TestOfflinePathIsSilent pins the offline executor's side of the
// contract: on a degraded RAID-5, WriteImage (parity member dead, full
// row, and partial row over the dead data member) and ReadImage
// (reconstructing) run the same plans as the driver path but move no
// metric — vol.* or the members' disk.* — and emit no event.
func TestOfflinePathIsSilent(t *testing.T) {
	cfg := vol.Config{Level: vol.RAID5, Members: 4, StripeKB: 8, Degraded: []int{1}}
	s, v := newVol(t, 19, cfg)
	tel := telemetry.New()
	v.AttachTelemetry(tel)
	events := 0
	tel.Bus.Subscribe(func(telemetry.Event) { events++ })
	total := v.Geom().TotalSectors()
	shadow := make([]byte, total*disk.SectorSize)
	fill(shadow, 5)
	run(t, s, func(p *sim.Proc) {
		if err := volIO(p, v, 0, shadow, true); err != nil {
			t.Errorf("fill: %v", err)
		}
	})
	before, seen := tel.Reg.Snapshot(s.Now()), events

	// 48-sector rows; sd1 holds parity in row 2, data elsewhere.
	for i, w := range []struct{ sec, n int64 }{
		{2*48 + 5, 20}, // parity member dead
		{4 * 48, 48},   // full row
		{10, 30},       // partial row over the dead data member
		{40, 70},       // three rows, a different discipline each
	} {
		buf := make([]byte, w.n*disk.SectorSize)
		fill(buf, int64(100+i))
		v.WriteImage(w.sec, buf)
		copy(shadow[w.sec*disk.SectorSize:], buf)
	}
	img := make([]byte, len(shadow))
	v.ReadImage(0, img)
	if !equal(img, shadow) {
		t.Fatal("offline read of the degraded array diverges from shadow")
	}

	if events != seen {
		t.Errorf("offline access emitted %d events", events-seen)
	}
	for _, e := range tel.Reg.Snapshot(s.Now()).Entries {
		if was := before.Get(e.Name); e.Value != was {
			t.Errorf("offline access moved %s: %d -> %d", e.Name, was, e.Value)
		}
	}
	// The parity the offline writes left must be the parity the rebuilt
	// array checks clean against.
	if err := v.Rebuild(1); err != nil {
		t.Fatal(err)
	}
	if bad, first := v.CheckParity(); bad > 0 {
		t.Fatalf("%d bad spans after offline degraded writes and rebuild: %v", bad, first)
	}
	v.ReadImage(0, img)
	if !equal(img, shadow) {
		t.Fatal("content diverges from shadow after rebuild")
	}
}

// TestMirrorWritesAndReadRotor checks RAID-1 duplicates every write on
// both spindles and rotates reads across them.
func TestMirrorWritesAndReadRotor(t *testing.T) {
	s, v := newVol(t, 23, vol.Config{Level: vol.RAID1, Members: 2})
	data := make([]byte, 64*disk.SectorSize)
	fill(data, 8)
	run(t, s, func(p *sim.Proc) {
		if err := volIO(p, v, 100, data, true); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		buf := make([]byte, 8*disk.SectorSize)
		for i := 0; i < 4; i++ {
			if err := volIO(p, v, 100+int64(i)*8, buf, false); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
	})
	for i, d := range v.Members() {
		got := make([]byte, len(data))
		d.ReadImage(100, got)
		if !equal(got, data) {
			t.Errorf("mirror side sd%d diverges from written data", i)
		}
		if d.Stats.Reads == 0 {
			t.Errorf("read rotor never used sd%d (reads=0)", i)
		}
	}
	if bad, first := v.CheckParity(); bad > 0 {
		t.Fatalf("%d diverging mirror spans: %v", bad, first)
	}
}

// TestConcatPlacement checks a straddling concat write lands half on
// each member.
func TestConcatPlacement(t *testing.T) {
	s, v := newVol(t, 29, vol.Config{Level: vol.Concat, Members: 2})
	msize := member().Geom.TotalSectors()
	data := make([]byte, 16*disk.SectorSize)
	fill(data, 4)
	run(t, s, func(p *sim.Proc) {
		if err := volIO(p, v, msize-8, data, true); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	lo := make([]byte, 8*disk.SectorSize)
	hi := make([]byte, 8*disk.SectorSize)
	v.Members()[0].ReadImage(msize-8, lo)
	v.Members()[1].ReadImage(0, hi)
	if !equal(lo, data[:len(lo)]) || !equal(hi, data[len(lo):]) {
		t.Fatal("straddling concat write not split at the member boundary")
	}
}

// TestMemberFaultFailover injects a hard media fault on one mirror
// spindle's read path and requires the volume to fail the member over
// mid-request: the logical read succeeds, the member is marked dead,
// and the member_fail / degraded_read events reach the bus.
func TestMemberFaultFailover(t *testing.T) {
	s, v := newVol(t, 31, vol.Config{Level: vol.RAID1, Members: 2})
	tel := telemetry.New()
	v.AttachTelemetry(tel)
	var kinds []telemetry.EventKind
	tel.Bus.Subscribe(func(ev telemetry.Event) { kinds = append(kinds, ev.Kind) })
	inj, err := fault.NewInjector(s, fault.Plan{Rules: []fault.Rule{{
		Match: fault.Match{Event: telemetry.EvIOStart, Nth: 1, RW: fault.Reads, Dev: "sd0"},
		Kind:  fault.MediaHard,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	v.AttachFaults(inj)
	inj.AttachTelemetry(tel)

	data := make([]byte, 32*disk.SectorSize)
	fill(data, 2)
	run(t, s, func(p *sim.Proc) {
		if err := volIO(p, v, 0, data, true); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got := make([]byte, len(data))
		if err := volIO(p, v, 0, got, false); err != nil {
			t.Errorf("read across member fault: %v", err)
			return
		}
		if !equal(got, data) {
			t.Error("failover read returned wrong bytes")
		}
	})
	if fd := v.Failed(); len(fd) != 1 || fd[0] != 0 {
		t.Fatalf("failed members %v, want [0]", fd)
	}
	if v.Stats.Failovers != 1 || v.Stats.MemberFails != 1 {
		t.Fatalf("failovers=%d member_fails=%d, want 1/1", v.Stats.Failovers, v.Stats.MemberFails)
	}
	saw := map[telemetry.EventKind]bool{}
	for _, k := range kinds {
		saw[k] = true
	}
	if !saw[telemetry.EvMemberFail] || !saw[telemetry.EvDegradedRead] {
		t.Fatalf("member_fail/degraded_read missing from the event stream: %v", saw)
	}
}

// TestBrokenVolumeReadsError pulls more members than the level
// tolerates and requires reads to surface the loss as an error rather
// than fabricated bytes.
func TestBrokenVolumeReadsError(t *testing.T) {
	s, v := newVol(t, 37, vol.Config{Level: vol.RAID5, Members: 3, StripeKB: 8})
	data := make([]byte, 64*disk.SectorSize)
	fill(data, 6)
	run(t, s, func(p *sim.Proc) {
		if err := volIO(p, v, 0, data, true); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		v.FailMember(0)
		v.FailMember(1)
		buf := make([]byte, len(data))
		if err := volIO(p, v, 0, buf, false); err == nil {
			t.Error("read on a two-dead-member RAID-5 succeeded, want error")
		}
	})
}
