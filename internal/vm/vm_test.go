package vm

import (
	"testing"

	"ufsclust/internal/sim"
)

// fakeObj is a backing object whose PageOut cleans the page after a
// simulated I/O delay.
type fakeObj struct {
	s        *sim.Sim
	pageouts int
	delay    sim.Time
}

func (f *fakeObj) PageOut(p *sim.Proc, pg *Page) {
	f.pageouts++
	d := f.delay
	if d == 0 {
		d = 10 * sim.Millisecond
	}
	f.s.After(d, func() {
		pg.ClearDirty()
		pg.Unbusy()
	})
}

func newVM(t *testing.T, memMB int64) (*sim.Sim, *VM, *fakeObj) {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	v := New(s, nil, memMB<<20)
	return s, v, &fakeObj{s: s}
}

func TestAllocAndLookup(t *testing.T) {
	s, v, obj := newVM(t, 8)
	s.Spawn("p", func(p *sim.Proc) {
		pg := v.Alloc(p, obj, 0)
		if !pg.Busy() {
			t.Error("fresh page not busy")
		}
		pg.Data[0] = 42
		pg.Unbusy()
		got, ok := v.Lookup(obj, 0)
		if !ok || got != pg || got.Data[0] != 42 {
			t.Error("lookup did not return the allocated page")
		}
		if _, ok := v.Lookup(obj, PageSize); ok {
			t.Error("lookup invented a page")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Stats.Hits != 1 || v.Stats.Misses != 1 || v.Stats.Allocs != 1 {
		t.Fatalf("stats = %+v", v.Stats)
	}
}

func TestDoubleAllocPanics(t *testing.T) {
	s, v, obj := newVM(t, 8)
	s.Spawn("p", func(p *sim.Proc) {
		pg := v.Alloc(p, obj, 0)
		pg.Unbusy()
		defer func() {
			if recover() == nil {
				t.Error("double alloc did not panic")
			}
		}()
		v.Alloc(p, obj, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeAndReclaim(t *testing.T) {
	s, v, obj := newVM(t, 8)
	s.Spawn("p", func(p *sim.Proc) {
		pg := v.Alloc(p, obj, 0)
		pg.Data[0] = 7
		pg.Unbusy()
		free0 := v.FreeMem()
		v.Free(pg, false)
		if v.FreeMem() != free0+1 {
			t.Error("free did not grow the free list")
		}
		// Reclaim: identity retained while on the free list.
		got, ok := v.Lookup(obj, 0)
		if !ok || got != pg || got.Data[0] != 7 {
			t.Error("reclaim failed")
		}
		if v.FreeMem() != free0 {
			t.Error("reclaim did not remove page from free list")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Stats.Reclaims != 1 {
		t.Fatalf("reclaims = %d, want 1", v.Stats.Reclaims)
	}
}

func TestFreeFrontIsReusedFirst(t *testing.T) {
	s, v, obj := newVM(t, 8)
	s.Spawn("p", func(p *sim.Proc) {
		a := v.Alloc(p, obj, 0)
		a.Unbusy()
		b := v.Alloc(p, obj, PageSize)
		b.Unbusy()
		v.Free(a, false) // tail
		v.Free(b, true)  // front (free-behind)
		got := v.Alloc(p, obj, 2*PageSize)
		if got != b {
			t.Error("front-freed page not reused first")
		}
		got.Unbusy()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Stats.FreeBehind != 1 {
		t.Fatalf("freeBehind = %d, want 1", v.Stats.FreeBehind)
	}
	if v.Stats.Steals != 1 {
		t.Fatalf("steals = %d, want 1 (page b recycled)", v.Stats.Steals)
	}
}

func TestStealDropsOldIdentity(t *testing.T) {
	s, v, obj := newVM(t, 8)
	s.Spawn("p", func(p *sim.Proc) {
		a := v.Alloc(p, obj, 0)
		a.Unbusy()
		v.Free(a, true)
		b := v.Alloc(p, obj, PageSize) // steals a
		b.Unbusy()
		if _, ok := v.Lookup(obj, 0); ok {
			t.Error("stolen page still reachable under old name")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDestroyRemovesIdentity(t *testing.T) {
	s, v, obj := newVM(t, 8)
	s.Spawn("p", func(p *sim.Proc) {
		pg := v.Alloc(p, obj, 0)
		pg.SetDirty() // destroy discards even dirty pages (truncate)
		pg.Unbusy()
		v.Destroy(pg)
		if _, ok := v.Lookup(obj, 0); ok {
			t.Error("destroyed page still cached")
		}
		if v.FreeMem() != v.TotalPages() {
			t.Error("destroyed page not freed")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitUnbusyBlocks(t *testing.T) {
	s, v, obj := newVM(t, 8)
	var when sim.Time
	s.Spawn("filler", func(p *sim.Proc) {
		pg := v.Alloc(p, obj, 0)
		s.Spawn("waiter", func(w *sim.Proc) {
			got, ok := v.Lookup(obj, 0)
			if !ok {
				t.Error("page vanished")
				return
			}
			got.WaitUnbusy(w)
			when = w.Now()
		})
		p.Sleep(25 * sim.Millisecond)
		pg.Unbusy()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if when != 25*sim.Millisecond {
		t.Fatalf("waiter released at %v, want 25ms", when)
	}
}

func TestAllocBlocksUntilDaemonFrees(t *testing.T) {
	// Fill all of memory with clean, unreferenced pages; the next Alloc
	// must sleep until the pageout daemon frees some.
	s, v, obj := newVM(t, 8)
	n := v.TotalPages()
	s.Spawn("hog", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pg := v.Alloc(p, obj, int64(i)*PageSize)
			pg.Unbusy()
			pg.ref = false // pretend they have aged
		}
		if v.FreeMem() != 0 {
			t.Error("memory not exhausted")
		}
		pg := v.Alloc(p, obj, int64(n)*PageSize)
		pg.Unbusy()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Stats.MemWaits != 1 {
		t.Fatalf("memWaits = %d, want 1", v.Stats.MemWaits)
	}
	if v.Stats.DaemonRuns == 0 || v.Stats.Scans == 0 {
		t.Fatalf("daemon never ran: %+v", v.Stats)
	}
	if v.FreeMem() == 0 {
		t.Fatal("daemon did not restore free memory")
	}
}

func TestDaemonWritesDirtyPages(t *testing.T) {
	s, v, obj := newVM(t, 8)
	n := v.TotalPages()
	s.Spawn("dirtier", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			pg := v.Alloc(p, obj, int64(i)*PageSize)
			pg.SetDirty()
			pg.Unbusy()
			pg.ref = false
		}
		// Next alloc forces the daemon to launder dirty pages.
		pg := v.Alloc(p, obj, int64(n)*PageSize)
		pg.Unbusy()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if obj.pageouts == 0 {
		t.Fatal("daemon never paged out a dirty page")
	}
	if v.Stats.Pageouts != int64(obj.pageouts) {
		t.Fatalf("pageouts stat %d != object count %d", v.Stats.Pageouts, obj.pageouts)
	}
}

func TestClockGivesReferencedPagesASecondChance(t *testing.T) {
	// Half the pages are continuously re-referenced; under pressure the
	// daemon should steal mostly from the cold half.
	s := sim.New(1)
	t.Cleanup(s.Close)
	v := New(s, nil, 8<<20)
	hot := &fakeObj{s: s}
	cold := &fakeObj{s: s}
	n := v.TotalPages()
	var hotPages []*Page
	s.Spawn("workload", func(p *sim.Proc) {
		for i := 0; i < n/2; i++ {
			pg := v.Alloc(p, hot, int64(i)*PageSize)
			pg.Unbusy()
			hotPages = append(hotPages, pg)
		}
		for i := 0; i < n/2; i++ {
			pg := v.Alloc(p, cold, int64(i)*PageSize)
			pg.Unbusy()
			pg.ref = false
		}
		// Keep the hot set referenced while allocating fresh pages.
		extra := &fakeObj{s: s}
		for i := 0; i < n/4; i++ {
			for _, hp := range hotPages {
				hp.Touch()
			}
			pg := v.Alloc(p, extra, int64(i)*PageSize)
			pg.Unbusy()
			pg.ref = false
			p.Sleep(sim.Millisecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	hotLeft := len(v.ObjectPages(hot))
	coldLeft := len(v.ObjectPages(cold))
	if hotLeft <= coldLeft {
		t.Fatalf("clock evicted hot pages before cold: hot=%d cold=%d", hotLeft, coldLeft)
	}
}

func TestMemoryLowThreshold(t *testing.T) {
	s, v, obj := newVM(t, 8)
	s.Spawn("p", func(p *sim.Proc) {
		if v.MemoryLow() {
			t.Error("fresh VM reports low memory")
		}
		n := v.TotalPages() - v.Lotsfree()
		for i := 0; i < n; i++ {
			pg := v.Alloc(p, obj, int64(i)*PageSize)
			pg.Unbusy()
		}
		if !v.MemoryLow() {
			t.Error("VM does not report low memory near lotsfree")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestObjectPagesEnumerates(t *testing.T) {
	s, v, obj := newVM(t, 8)
	other := &fakeObj{s: s}
	s.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			v.Alloc(p, obj, int64(i)*PageSize).Unbusy()
		}
		v.Alloc(p, other, 0).Unbusy()
		if got := len(v.ObjectPages(obj)); got != 5 {
			t.Errorf("ObjectPages = %d, want 5", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeGuards(t *testing.T) {
	s, v, obj := newVM(t, 8)
	s.Spawn("p", func(p *sim.Proc) {
		pg := v.Alloc(p, obj, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("freeing busy page did not panic")
				}
			}()
			v.Free(pg, false)
		}()
		pg.Unbusy()
		pg.SetDirty()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("freeing dirty page did not panic")
				}
			}()
			v.Free(pg, false)
		}()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
