package driver

import (
	"bytes"
	"errors"
	"testing"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// newFaultRig builds a sim + disk + driver with telemetry attached and
// a fault injector executing plan — the same wiring order as the root
// machine (injector last, so faults armed by an io_start are visible to
// the drive's TakeMedia before the emission returns).
func newFaultRig(t *testing.T, plan fault.Plan, coalesce bool) (*sim.Sim, *Driver, *disk.Disk, *telemetry.Telemetry) {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	tel := telemetry.New()
	d := disk.New(s, "d0", disk.DefaultParams())
	cfg := DefaultConfig()
	cfg.Coalesce = coalesce
	dr := New(s, d, cpu.New(s, 12), cfg)
	inj, err := fault.NewInjector(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	d.AttachFaults(inj)
	d.AttachTelemetry(tel)
	dr.AttachTelemetry(tel)
	inj.AttachTelemetry(tel)
	return s, dr, d, tel
}

func TestTransientStormDrains(t *testing.T) {
	// The first write fails twice (anchor + first retry), then the
	// drive recovers: the caller sees success, the data lands intact.
	s, dr, d, tel := newFaultRig(t, fault.Plan{Rules: []fault.Rule{fault.FailNth(1, fault.Writes, 2)}}, false)
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i % 251)
	}
	var b *Buf
	s.Spawn("io", func(p *sim.Proc) {
		b = &Buf{Blkno: 320, Data: append([]byte(nil), data...), Write: true}
		dr.IO(p, b)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Err != nil {
		t.Fatalf("transient storm surfaced an error: %v", b.Err)
	}
	got := make([]byte, len(data))
	d.ReadImage(320, got)
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted through the retry path")
	}
	if dr.Stats.Retries != 2 || dr.Stats.Giveups != 0 {
		t.Fatalf("retries=%d giveups=%d, want 2/0", dr.Stats.Retries, dr.Stats.Giveups)
	}
	if d.Stats.MediaErrors != 2 {
		t.Fatalf("disk media errors = %d, want 2", d.Stats.MediaErrors)
	}
	// Both queues drained: the gauges the root Snapshot exposes are 0.
	snap := tel.Reg.Snapshot(s.Now())
	if q := snap.Get("driver.queue_len"); q != 0 {
		t.Fatalf("driver.queue_len = %d after drain", q)
	}
	if q := snap.Get("disk.queue_len"); q != 0 {
		t.Fatalf("disk.queue_len = %d after drain", q)
	}
	if got := snap.Get("fault.media_injected"); got != 2 {
		t.Fatalf("fault.media_injected = %d, want 2", got)
	}
}

func TestGiveupDeliversTypedError(t *testing.T) {
	s, dr, _, tel := newFaultRig(t, fault.Plan{Rules: []fault.Rule{fault.FailNthHard(1, fault.Writes)}}, false)
	var b *Buf
	s.Spawn("io", func(p *sim.Proc) {
		b = &Buf{Blkno: 640, Data: make([]byte, 8192), Write: true}
		dr.IO(p, b)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Err == nil {
		t.Fatal("hard fault produced no error")
	}
	var de *DevError
	if !errors.As(b.Err, &de) {
		t.Fatalf("error is %T, want *DevError", b.Err)
	}
	if !errors.Is(b.Err, disk.ErrMedia) {
		t.Fatalf("error %v does not unwrap to disk.ErrMedia", b.Err)
	}
	if !de.Write || de.Sector != 640 || de.Attempts != DefaultMaxRetries+1 {
		t.Fatalf("DevError = %+v, want write sector 640 after %d attempts", de, DefaultMaxRetries+1)
	}
	if dr.Stats.Retries != int64(DefaultMaxRetries) || dr.Stats.Giveups != 1 {
		t.Fatalf("retries=%d giveups=%d, want %d/1", dr.Stats.Retries, dr.Stats.Giveups, DefaultMaxRetries)
	}
	snap := tel.Reg.Snapshot(s.Now())
	if q := snap.Get("driver.queue_len"); q != 0 {
		t.Fatalf("driver.queue_len = %d after give-up", q)
	}
	if got := snap.Get("driver.giveups"); got != 1 {
		t.Fatalf("driver.giveups = %d, want 1", got)
	}
}

func TestRetryBackoffDoubles(t *testing.T) {
	s, dr, _, tel := newFaultRig(t, fault.Plan{Rules: []fault.Rule{fault.FailNthHard(1, fault.Writes)}}, false)
	var delays []sim.Time
	tel.Bus.Subscribe(func(ev telemetry.Event) {
		if ev.Kind == telemetry.EvIORetry {
			delays = append(delays, ev.Dur)
		}
	})
	s.Spawn("io", func(p *sim.Proc) {
		dr.IO(p, &Buf{Blkno: 320, Data: make([]byte, 512), Write: true})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(delays) != DefaultMaxRetries {
		t.Fatalf("retry events = %d, want %d", len(delays), DefaultMaxRetries)
	}
	for i, d := range delays {
		if want := RetryBackoff << i; d != want {
			t.Fatalf("retry %d backoff = %v, want %v (doubling)", i+1, d, want)
		}
	}
}

func TestRetryDoesNotStarveQueue(t *testing.T) {
	// While the failed transfer sits in its backoff, the drive is
	// released and queued requests proceed.
	s, dr, _, _ := newFaultRig(t, fault.Plan{Rules: []fault.Rule{fault.FailNth(1, fault.Writes, 1)}}, false)
	var order []int64
	mk := func(blk int64, write bool) *Buf {
		return &Buf{Blkno: blk, Write: write, Data: make([]byte, 512),
			Iodone: func(b *Buf) { order = append(order, b.Blkno) }}
	}
	s.Spawn("io", func(p *sim.Proc) {
		dr.Strategy(p, mk(320, true)) // fails once, retries after backoff
		dr.Strategy(p, mk(1000, false))
		p.Sleep(2 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("iodones = %v, want both requests completed", order)
	}
	// The read completes before the retried write: the backoff did not
	// hold the drive.
	if order[0] != 1000 {
		t.Fatalf("completion order = %v; backoff starved the queue", order)
	}
	if dr.Stats.Retries != 1 || dr.Stats.Giveups != 0 {
		t.Fatalf("retries=%d giveups=%d, want 1/0", dr.Stats.Retries, dr.Stats.Giveups)
	}
}

func TestClusterChildrenInheritError(t *testing.T) {
	// A coalesced write that dies delivers the typed error to every
	// child buffer, not just the merged parent.
	s, dr, _, _ := newFaultRig(t, fault.Plan{Rules: []fault.Rule{fault.FailNthHard(2, fault.Writes)}}, true)
	const bsize = 8192
	var errs []error
	s.Spawn("io", func(p *sim.Proc) {
		// Hold the drive busy so the adjacent writes meet in the queue.
		dr.Strategy(p, &Buf{Blkno: 700000, Data: make([]byte, 512), Write: true})
		for i := 0; i < 3; i++ {
			dr.Strategy(p, &Buf{Blkno: int64(1000 + i*(bsize/512)), Data: make([]byte, bsize), Write: true,
				Iodone: func(b *Buf) { errs = append(errs, b.Err) }})
		}
		p.Sleep(2 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if dr.Stats.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", dr.Stats.Coalesced)
	}
	if len(errs) != 3 {
		t.Fatalf("child iodones = %d, want 3", len(errs))
	}
	for i, err := range errs {
		if !errors.Is(err, disk.ErrMedia) {
			t.Fatalf("child %d error = %v, want disk.ErrMedia", i, err)
		}
	}
}

func TestRetriesDisabled(t *testing.T) {
	// MaxRetries < 0 turns retries off: the first failure is final.
	s := sim.New(1)
	t.Cleanup(s.Close)
	tel := telemetry.New()
	d := disk.New(s, "d0", disk.DefaultParams())
	cfg := DefaultConfig()
	cfg.MaxRetries = -1
	dr := New(s, d, nil, cfg)
	inj, err := fault.NewInjector(s, fault.Plan{Rules: []fault.Rule{fault.FailNth(1, fault.Writes, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	d.AttachFaults(inj)
	d.AttachTelemetry(tel)
	dr.AttachTelemetry(tel)
	inj.AttachTelemetry(tel)
	var b *Buf
	s.Spawn("io", func(p *sim.Proc) {
		b = &Buf{Blkno: 320, Data: make([]byte, 512), Write: true}
		dr.IO(p, b)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Err == nil {
		t.Fatal("no error with retries disabled")
	}
	if dr.Stats.Retries != 0 || dr.Stats.Giveups != 1 {
		t.Fatalf("retries=%d giveups=%d, want 0/1", dr.Stats.Retries, dr.Stats.Giveups)
	}
}
