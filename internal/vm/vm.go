// Package vm implements the SunOS unified virtual-memory page cache the
// paper's file system runs against: pages named by <object, offset>, a
// hashed lookup with reclaim from the free list, and a two-handed-clock
// pageout daemon woken below the lotsfree watermark. The paper's
// "unanticipated problems" — page thrashing on large sequential I/O and
// the write fairness problem — are emergent behaviours of this component,
// which is why it is modeled in full rather than stubbed.
package vm

import (
	"fmt"
	"sort"

	"ufsclust/internal/cpu"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// PageSize is the system page size. Per the paper's footnote 3 the file
// system block size is assumed >= the page size; we set them equal (8 KB)
// as the measured SunOS 4.1 configuration effectively did for I/O.
const PageSize = 8192

// Object is the backing object a page belongs to (a vnode). The VM
// system writes dirty pages back through it. Implementations must be
// comparable (pointer identity) since pages are named <Object, offset>.
type Object interface {
	// PageOut writes pg (and possibly neighbouring dirty pages) to
	// backing store from the pageout daemon's context. The callee owns
	// clearing the dirty bit and unbusying the page when the write
	// completes.
	PageOut(p *sim.Proc, pg *Page)
}

// Page is one physical page frame.
type Page struct {
	Obj Object
	Off int64 // byte offset within the object

	Data []byte

	dirty  bool
	busy   bool // locked for I/O or fault handling
	ref    bool // reference bit (clock hand 1 clears, hand 2 tests)
	onFree bool
	ra     bool // brought in by read-ahead, not yet demanded

	wanted sim.WaitQ
}

// Dirty reports whether the page holds unwritten modifications.
func (pg *Page) Dirty() bool { return pg.dirty }

// SetDirty marks the page modified.
func (pg *Page) SetDirty() { pg.dirty = true }

// ClearDirty marks the page clean (its backing store matches).
func (pg *Page) ClearDirty() { pg.dirty = false }

// Busy reports whether the page is locked for I/O.
func (pg *Page) Busy() bool { return pg.busy }

// SetBusy locks the page. The caller must know it is unlocked.
func (pg *Page) SetBusy() {
	if pg.busy {
		panic("vm: page already busy") // simlint:invariant -- page lifecycle bug, not caller input
	}
	pg.busy = true
}

// Unbusy unlocks the page and wakes any waiters: it ends a hold.
func (pg *Page) Unbusy() {
	pg.busy = false
	pg.wanted.WakeAll()
}

// names reports whether pg still holds the identity <obj, off>.
func (pg *Page) names(obj Object, off int64) bool { return pg.Obj == obj && pg.Off == off }

// Touch sets the reference bit, protecting the page from the next clock
// sweep.
func (pg *Page) Touch() { pg.ref = true }

// MarkRA tags the page as brought in by read-ahead. The tag survives
// until the first demand access claims it (TakeRA) or the page is
// recycled unreferenced, which counts as prefetch waste.
func (pg *Page) MarkRA() { pg.ra = true }

// TakeRA consumes the read-ahead tag: it reports whether the page was a
// not-yet-demanded prefetch, and clears the tag so each prefetched page
// is counted as a hit at most once.
func (pg *Page) TakeRA() bool {
	was := pg.ra
	pg.ra = false
	return was
}

type key struct {
	obj Object
	off int64
}

// Stats counts VM events.
type Stats struct {
	Lookups    int64
	Hits       int64 // found active
	Reclaims   int64 // found on the free list, rescued
	Misses     int64
	Allocs     int64
	Steals     int64 // free-list pages recycled away from an identity
	Pageouts   int64 // dirty pages written by the daemon
	FreeBehind int64 // pages freed by the free-behind path
	Scans      int64 // pages examined by the clock
	DaemonRuns int64
	MemWaits   int64 // allocations that had to sleep for memory
	RAWaste    int64 // read-ahead pages recycled without a demand access
}

// VM is the virtual memory system.
type VM struct {
	Sim *sim.Sim
	CPU *cpu.Model // may be nil

	pages    []*Page
	hash     map[key]*Page
	free     []*Page // FIFO free list; index 0 is next to be reused
	lotsfree int     // pageout wakeup threshold: a sixteenth of memory

	hand1, hand2 int

	daemonWake sim.WaitQ
	memWait    sim.WaitQ

	Stats Stats

	// Adversary is a test-only switch: at each Slept every clean page
	// nobody holds loses its identity and is filled with poison, so code
	// that keeps a page it does not hold across a sleep reads garbage.
	Adversary bool

	// Telemetry; nil (and nil-safe) until AttachTelemetry.
	bus *telemetry.Bus
}

// AttachTelemetry registers the VM counters and the free-memory gauge
// and connects the pageout daemon to the event bus.
func (v *VM) AttachTelemetry(tel *telemetry.Telemetry) {
	v.bus = tel.Bus
	r := tel.Reg
	r.Counter("vm.lookups", func() int64 { return v.Stats.Lookups })
	r.Counter("vm.hits", func() int64 { return v.Stats.Hits })
	r.Counter("vm.reclaims", func() int64 { return v.Stats.Reclaims })
	r.Counter("vm.misses", func() int64 { return v.Stats.Misses })
	r.Counter("vm.allocs", func() int64 { return v.Stats.Allocs })
	r.Counter("vm.steals", func() int64 { return v.Stats.Steals })
	r.Counter("vm.pageouts", func() int64 { return v.Stats.Pageouts })
	r.Counter("vm.free_behind", func() int64 { return v.Stats.FreeBehind })
	r.Counter("vm.scans", func() int64 { return v.Stats.Scans })
	r.Counter("vm.daemon_runs", func() int64 { return v.Stats.DaemonRuns })
	r.Counter("vm.mem_waits", func() int64 { return v.Stats.MemWaits })
	r.Counter("vm.ra_waste", func() int64 { return v.Stats.RAWaste })
	r.Gauge("vm.free_pages", func() int64 { return int64(len(v.free)) })
}

// New builds a page pool of memBytes of physical memory and starts the
// pageout daemon.
func New(s *sim.Sim, cpuModel *cpu.Model, memBytes int64) *VM {
	n := int(memBytes / PageSize)
	if n < 8 {
		panic(fmt.Sprintf("vm: %d bytes is too little memory", memBytes)) // simlint:invariant -- harness configuration assertion at construction
	}
	v := &VM{
		Sim:      s,
		CPU:      cpuModel,
		hash:     make(map[key]*Page),
		lotsfree: n / 16,
	}
	v.daemonWake.Name = "pageout"
	v.memWait.Name = "memwait"
	v.pages = make([]*Page, n)
	v.free = make([]*Page, 0, n)
	for i := range v.pages {
		pg := &Page{Data: make([]byte, PageSize), onFree: true}
		v.pages[i] = pg
		v.free = append(v.free, pg)
	}
	// The front hand leads the back hand by a quarter of memory (the
	// handspread), so a page has that long to be re-referenced between
	// bit-clear and check.
	v.hand1 = n / 4
	v.hand2 = 0
	s.SpawnDaemon("pageout", v.pageoutDaemon)
	return v
}

// TotalPages returns the physical page count.
func (v *VM) TotalPages() int { return len(v.pages) }

// FreeMem returns the current free page count.
func (v *VM) FreeMem() int { return len(v.free) }

// Lotsfree returns the pageout wakeup threshold in pages.
func (v *VM) Lotsfree() int { return v.lotsfree }

// MemoryLow reports whether free memory is near the pageout threshold —
// the paper's trigger condition for free-behind.
func (v *VM) MemoryLow() bool { return len(v.free) <= v.lotsfree*2 }

// Lookup finds the page <obj, off> in the cache. A page found on the
// free list is reclaimed (its contents are still valid). The returned
// page is not held and may be busy: a caller that reads or writes its
// bytes, or keeps it across a sleep, must Hold it first.
func (v *VM) Lookup(obj Object, off int64) (*Page, bool) {
	v.Stats.Lookups++
	pg, ok := v.hash[key{obj, off}]
	if !ok {
		v.Stats.Misses++
		return nil, false
	}
	if pg.onFree {
		v.removeFree(pg)
		v.Stats.Reclaims++
	} else {
		v.Stats.Hits++
	}
	pg.ref = true
	return pg, true
}

// Cached reports whether the page <obj, off> is present in the cache
// (active or resting on the free list) without perturbing any state: no
// stats, no reclaim, no reference bit. startRead uses it to size its
// read-ahead accounting before issuing.
func (v *VM) Cached(obj Object, off int64) bool {
	_, ok := v.hash[key{obj, off}]
	return ok
}

// Hold makes the caller pg's one user until it calls Unbusy: it waits
// out the current holder, reclaims the page from the free list, and marks
// it busy. It returns false, holding nothing, if pg no longer names <obj,
// off>: the page was recycled while the caller slept.
func (v *VM) Hold(p *sim.Proc, pg *Page, obj Object, off int64) bool {
	waited := false
	for pg.busy && pg.names(obj, off) {
		p.Block(&pg.wanted)
		waited = true
	}
	if !pg.names(obj, off) {
		return false
	}
	if pg.onFree {
		v.removeFree(pg)
		v.Stats.Reclaims++
	}
	pg.busy = true
	if waited {
		v.Slept()
	}
	return true
}

// Alloc takes a free page, names it <obj, off>, and returns it held (the
// caller fills it, then ends the hold with Unbusy or by handing the page
// to a transfer). It blocks while no memory is free, waking the pageout
// daemon. The page must not already be cached.
func (v *VM) Alloc(p *sim.Proc, obj Object, off int64) *Page {
	if _, ok := v.hash[key{obj, off}]; ok {
		panic("vm: Alloc of cached page") // simlint:invariant -- page lifecycle bug, not caller input
	}
	v.Stats.Allocs++
	if len(v.free) < v.lotsfree {
		v.KickDaemon()
	}
	waited := false
	for len(v.free) == 0 {
		if !waited {
			v.Stats.MemWaits++
			waited = true
		}
		v.KickDaemon()
		p.Block(&v.memWait)
		v.Slept()
	}
	pg := v.free[0]
	copy(v.free, v.free[1:])
	v.free = v.free[:len(v.free)-1]
	pg.onFree = false
	if pg.Obj != nil {
		delete(v.hash, key{pg.Obj, pg.Off})
		v.Stats.Steals++
	}
	if pg.ra {
		// A read-ahead page recycled before any demand access: the
		// prefetch that brought it in was pure waste.
		v.Stats.RAWaste++
		pg.ra = false
	}
	pg.Obj, pg.Off = obj, off
	pg.dirty, pg.ref = false, true
	pg.busy = true
	v.hash[key{obj, off}] = pg
	return pg
}

// Free returns a page to the free list, keeping its identity so it can
// be reclaimed until recycled. If front is true the page goes to the
// head of the list (it will be reused first) — the free-behind path uses
// this so sequential I/O recycles its own pages.
func (v *VM) Free(pg *Page, front bool) {
	if pg.busy {
		panic("vm: freeing busy page") // simlint:invariant -- page lifecycle bug, not caller input
	}
	if pg.dirty {
		panic("vm: freeing dirty page") // simlint:invariant -- page lifecycle bug, not caller input
	}
	if pg.onFree {
		return
	}
	pg.onFree = true
	if front {
		v.free = append(v.free, nil)
		copy(v.free[1:], v.free)
		v.free[0] = pg
		v.Stats.FreeBehind++
	} else {
		v.free = append(v.free, pg)
	}
	v.memWait.WakeAll()
}

// Destroy removes a page's identity and frees it to the front of the
// list; used by truncate/unlink.
func (v *VM) Destroy(pg *Page) {
	if pg.busy {
		panic("vm: destroying busy page") // simlint:invariant -- page lifecycle bug, not caller input
	}
	if pg.Obj != nil {
		delete(v.hash, key{pg.Obj, pg.Off})
		pg.Obj = nil
	}
	if pg.ra {
		v.Stats.RAWaste++
		pg.ra = false
	}
	pg.dirty = false
	if !pg.onFree {
		pg.onFree = true
		v.free = append(v.free, nil)
		copy(v.free[1:], v.free)
		v.free[0] = pg
	}
	v.memWait.WakeAll()
}

// ObjectPages returns the cached pages of obj ordered by file offset,
// including pages resting on the free list. The order matters: callers
// (Purge, Truncate) destroy the pages in sequence, which reshapes the
// free list, so a map-order walk here would leak host randomness into
// later allocations.
func (v *VM) ObjectPages(obj Object) []*Page {
	var out []*Page
	for k, pg := range v.hash {
		if k.obj == obj {
			out = append(out, pg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// Evict destroys obj's cached pages from byte offset from on (truncate
// and purge), waiting out any holder first. A page recycled meanwhile
// belongs to someone else and is left alone.
func (v *VM) Evict(p *sim.Proc, obj Object, from int64) {
	for _, pg := range v.ObjectPages(obj) {
		if off := pg.Off; off >= from {
			for pg.busy && pg.names(obj, off) {
				p.Block(&pg.wanted)
				v.Slept()
			}
			if pg.names(obj, off) {
				v.Destroy(pg)
			}
		}
	}
}

func (v *VM) removeFree(pg *Page) {
	for i, f := range v.free {
		if f == pg {
			copy(v.free[i:], v.free[i+1:])
			v.free = v.free[:len(v.free)-1]
			pg.onFree = false
			return
		}
	}
	panic("vm: page marked free but not on list") // simlint:invariant -- free-list/flag consistency assertion
}

// Slept is the adversary's steal point, called wherever a process may
// have slept (the engine calls it after each CPU charge). It does
// nothing unless Adversary is set.
func (v *VM) Slept() {
	if !v.Adversary {
		return
	}
	for _, pg := range v.pages {
		if pg.Obj != nil && !pg.busy && !pg.dirty {
			v.Destroy(pg)
			for i := range pg.Data {
				pg.Data[i] = poison
			}
		}
	}
}

// poison fills every page the adversary steals.
const poison = 0xA5

// KickDaemon wakes the pageout daemon.
func (v *VM) KickDaemon() { v.daemonWake.WakeAll() }

// pageoutDaemon is the classic two-handed clock: the front hand clears
// reference bits, the back hand (handspread pages behind) frees pages
// whose bit is still clear, writing them first if dirty.
func (v *VM) pageoutDaemon(p *sim.Proc) {
	for {
		for len(v.free) >= v.lotsfree {
			p.Block(&v.daemonWake)
		}
		v.Stats.DaemonRuns++
		target := v.lotsfree
		// Sweep until the target is met, but never more than two full
		// revolutions per run; if everything is busy or rereferenced we
		// must let I/O complete rather than spin.
		maxScan := 2 * len(v.pages)
		scanned := 0
		freed := 0
		for len(v.free) < target && scanned < maxScan {
			front := v.pages[v.hand1]
			v.hand1 = (v.hand1 + 1) % len(v.pages)
			if !front.onFree && !front.busy {
				front.ref = false
			}
			back := v.pages[v.hand2]
			v.hand2 = (v.hand2 + 1) % len(v.pages)
			scanned++
			v.Stats.Scans++
			if v.CPU != nil {
				v.CPU.Use(p, cpu.PageDaemon, cpu.ScanInstr)
			} else {
				p.Sleep(10 * sim.Microsecond)
			}
			if back.onFree || back.busy || back.ref || back.Obj == nil {
				continue
			}
			if back.dirty {
				// Hand the page to its object for write-back; the
				// object unbusies and cleans it on completion, after
				// which a later sweep can free it.
				back.SetBusy()
				v.Stats.Pageouts++
				back.Obj.PageOut(p, back)
				continue
			}
			v.Free(back, false)
			freed++
		}
		v.bus.Emit(telemetry.Event{
			T:      p.Now(),
			Kind:   telemetry.EvPageoutScan,
			Depth:  int64(scanned),
			Blocks: int64(freed),
		})
		if len(v.free) < target {
			// Everything in sight is busy; wait for completions.
			p.Sleep(4 * sim.Millisecond)
		}
	}
}
