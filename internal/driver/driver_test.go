package driver

import (
	"bytes"
	"testing"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
)

func newRig(t *testing.T, coalesce bool) (*sim.Sim, *Driver, *disk.Disk) {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := disk.New(s, "d0", disk.DefaultParams())
	cfg := DefaultConfig()
	cfg.Coalesce = coalesce
	dr := New(s, d, cpu.New(s, 12), cfg)
	return s, dr, d
}

func TestSynchronousRoundTrip(t *testing.T) {
	s, dr, _ := newRig(t, false)
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i % 131)
	}
	got := make([]byte, 8192)
	s.Spawn("io", func(p *sim.Proc) {
		w := &Buf{Blkno: 320, Data: append([]byte(nil), data...), Write: true}
		dr.IO(p, w)
		dr.IO(p, &Buf{Blkno: 320, Data: got})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("driver round trip mismatch")
	}
	if dr.Stats.Issued != 2 {
		t.Fatalf("issued = %d, want 2", dr.Stats.Issued)
	}
}

func TestMaxPhysEnforced(t *testing.T) {
	s, dr, _ := newRig(t, false)
	s.Spawn("io", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversized transfer accepted")
			}
		}()
		dr.Strategy(p, &Buf{Blkno: 0, Data: make([]byte, DefaultMaxPhys+512)})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDisksortOrdersByBlock(t *testing.T) {
	// Queue far, near, middle while the drive is busy; service order
	// after the active request should be ascending.
	s, dr, _ := newRig(t, false)
	var order []int64
	mk := func(blk int64) *Buf {
		return &Buf{Blkno: blk, Data: make([]byte, 512), Iodone: func(b *Buf) { order = append(order, b.Blkno) }}
	}
	s.Spawn("io", func(p *sim.Proc) {
		dr.Strategy(p, mk(10)) // becomes active immediately
		dr.Strategy(p, mk(500000))
		dr.Strategy(p, mk(1000))
		dr.Strategy(p, mk(200000))
		p.Sleep(2 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 1000, 200000, 500000}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

func TestDisksortElevatorWrap(t *testing.T) {
	// Requests behind the head go in the second run: head at 200000,
	// inserts at 10 and 300000 → 300000 first, then wrap to 10.
	s, dr, _ := newRig(t, false)
	var order []int64
	mk := func(blk int64) *Buf {
		return &Buf{Blkno: blk, Data: make([]byte, 512), Iodone: func(b *Buf) { order = append(order, b.Blkno) }}
	}
	s.Spawn("io", func(p *sim.Proc) {
		dr.Strategy(p, mk(200000)) // active; head at 200000
		dr.Strategy(p, mk(10))
		dr.Strategy(p, mk(300000))
		p.Sleep(2 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{200000, 300000, 10}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
}

func TestOrderBarrierPreventsReorder(t *testing.T) {
	// A B_ORDER request pins everything queued after it, even blocks
	// that sort earlier.
	s, dr, _ := newRig(t, false)
	var order []int64
	mk := func(blk int64, ord bool) *Buf {
		return &Buf{Blkno: blk, Order: ord, Data: make([]byte, 512), Iodone: func(b *Buf) { order = append(order, b.Blkno) }}
	}
	s.Spawn("io", func(p *sim.Proc) {
		dr.Strategy(p, mk(10, false)) // active
		dr.Strategy(p, mk(600000, false))
		dr.Strategy(p, mk(500000, true)) // barrier
		dr.Strategy(p, mk(1000, false))  // would sort first without barrier
		p.Sleep(3 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 600000, 500000, 1000}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order = %v, want %v", order, want)
		}
	}
	if dr.Stats.SortSkipped == 0 {
		t.Fatal("barrier never constrained an insert")
	}
}

func TestCoalesceAdjacentWrites(t *testing.T) {
	s, dr, d := newRig(t, true)
	const bsize = 8192
	nDone := 0
	s.Spawn("io", func(p *sim.Proc) {
		// Hold the drive busy with a far request so the adjacent writes
		// can meet in the queue.
		busy := &Buf{Blkno: 700000, Data: make([]byte, 512)}
		dr.Strategy(p, busy)
		for i := 0; i < 4; i++ {
			data := make([]byte, bsize)
			for j := range data {
				data[j] = byte(i)
			}
			b := &Buf{Blkno: int64(1000 + i*(bsize/512)), Data: data, Write: true,
				Iodone: func(*Buf) { nDone++ }}
			dr.Strategy(p, b)
		}
		p.Sleep(2 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if nDone != 4 {
		t.Fatalf("iodone count = %d, want 4", nDone)
	}
	if dr.Stats.Coalesced != 3 {
		t.Fatalf("coalesced = %d, want 3", dr.Stats.Coalesced)
	}
	// 1 busy + 1 merged write should have reached the drive.
	if got := d.Stats.Writes; got != 1 {
		t.Fatalf("disk write requests = %d, want 1 (merged)", got)
	}
	// Verify the merged data landed correctly.
	buf := make([]byte, bsize)
	for i := 0; i < 4; i++ {
		d.ReadImage(int64(1000+i*(bsize/512)), buf)
		for _, b := range buf {
			if b != byte(i) {
				t.Fatalf("block %d corrupted after coalesced write", i)
			}
		}
	}
}

func TestCoalesceScattersReads(t *testing.T) {
	s, dr, d := newRig(t, true)
	const bsize = 8192
	// Prepare distinct content.
	for i := 0; i < 3; i++ {
		data := make([]byte, bsize)
		for j := range data {
			data[j] = byte(100 + i)
		}
		d.WriteImage(int64(2000+i*(bsize/512)), data)
	}
	bufs := make([][]byte, 3)
	s.Spawn("io", func(p *sim.Proc) {
		busy := &Buf{Blkno: 700000, Data: make([]byte, 512)}
		dr.Strategy(p, busy)
		for i := 0; i < 3; i++ {
			bufs[i] = make([]byte, bsize)
			dr.Strategy(p, &Buf{Blkno: int64(2000 + i*(bsize/512)), Data: bufs[i]})
		}
		p.Sleep(2 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, b := range bufs[i] {
			if b != byte(100+i) {
				t.Fatalf("scattered read %d has wrong data %d", i, b)
			}
		}
	}
	if dr.Stats.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", dr.Stats.Coalesced)
	}
}

func TestCoalesceRespectsMaxPhys(t *testing.T) {
	s, dr, d := newRig(t, true)
	const bsize = 8192
	n := DefaultMaxPhys/bsize + 2 // 9 blocks: 7 fit, 2 spill
	s.Spawn("io", func(p *sim.Proc) {
		busy := &Buf{Blkno: 700000, Data: make([]byte, 512)}
		dr.Strategy(p, busy)
		for i := 0; i < n; i++ {
			dr.Strategy(p, &Buf{Blkno: int64(3000 + i*(bsize/512)), Data: make([]byte, bsize), Write: true})
		}
		p.Sleep(2 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Every disk request must be within MaxPhys.
	if d.Stats.SectorsWritten != int64(n*bsize/512) {
		t.Fatalf("sectors written = %d, want %d", d.Stats.SectorsWritten, n*bsize/512)
	}
	if d.Stats.Writes < 2 {
		t.Fatalf("disk writes = %d; a single request would exceed maxphys", d.Stats.Writes)
	}
}

func TestStrategyChargesCPU(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := disk.New(s, "d0", disk.DefaultParams())
	m := cpu.New(s, 12)
	dr := New(s, d, m, DefaultConfig())
	s.Spawn("io", func(p *sim.Proc) {
		dr.IO(p, &Buf{Blkno: 0, Data: make([]byte, 512)})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	bk := m.Buckets()
	if bk[cpu.Driver].Count != 1 || bk[cpu.Driver].Instr == 0 {
		t.Fatalf("driver bucket = %+v, want one charged call", bk[cpu.Driver])
	}
	if bk[cpu.Interrupt].Count != 1 {
		t.Fatalf("interrupt bucket = %+v, want one charge", bk[cpu.Interrupt])
	}
}

func TestCoalesceSkipsOrderedRequests(t *testing.T) {
	// B_ORDER barriers must never be folded into a cluster: their
	// position in the queue is their meaning.
	s, dr, _ := newRig(t, true)
	const bsize = 8192
	s.Spawn("io", func(p *sim.Proc) {
		busy := &Buf{Blkno: 700000, Data: make([]byte, 512)}
		dr.Strategy(p, busy)
		dr.Strategy(p, &Buf{Blkno: 1000, Data: make([]byte, bsize), Write: true, Order: true})
		dr.Strategy(p, &Buf{Blkno: 1000 + bsize/512, Data: make([]byte, bsize), Write: true})
		p.Sleep(2 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if dr.Stats.Coalesced != 0 {
		t.Fatalf("coalesced = %d; ordered request was merged", dr.Stats.Coalesced)
	}
}

func TestQueueWaitAccounting(t *testing.T) {
	s, dr, _ := newRig(t, false)
	s.Spawn("io", func(p *sim.Proc) {
		dr.Strategy(p, &Buf{Blkno: 0, Data: make([]byte, 512)})
		dr.Strategy(p, &Buf{Blkno: 16, Data: make([]byte, 512)})
		p.Sleep(sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if dr.Stats.QueueWait <= 0 {
		t.Fatal("second request recorded no queue wait")
	}
	if dr.Stats.MaxQueue != 1 {
		t.Fatalf("maxQueue = %d, want 1", dr.Stats.MaxQueue)
	}
}

func TestIodoneRunsInSchedulerContext(t *testing.T) {
	// Completion callbacks come from an After(0) event, so they may
	// wake processes but must not be running as one.
	s, dr, _ := newRig(t, false)
	var sawCurrent bool
	s.Spawn("io", func(p *sim.Proc) {
		done := false
		var q sim.WaitQ
		dr.Strategy(p, &Buf{Blkno: 0, Data: make([]byte, 512), Iodone: func(*Buf) {
			sawCurrent = s.Current() != nil
			done = true
			q.WakeAll()
		}})
		for !done {
			p.Block(&q)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sawCurrent {
		t.Fatal("iodone ran in process context")
	}
}
