package sim

import (
	"fmt"
	"io"
	"math/rand"
)

// event is a scheduled occurrence: a callback run in scheduler context.
// Process wakeups use the proc's prebuilt wakeFn closure, so a single
// fn field covers both kinds and events stay 24 bytes — the heap sift
// loops move nothing else. Events at equal times fire in scheduling
// order (seq). Events are plain values inside the Sim's heap slice:
// scheduling one allocates nothing (the slice grows amortized), and
// comparisons read the key straight from the slice instead of chasing
// a pointer.
type event struct {
	t   Time
	seq int64
	fn  func()
}

// Sim is a discrete-event simulator. Create one with New, add processes
// with Spawn, then call Run, and Close when done with the instance.
type Sim struct {
	now Time
	seq int64

	// events is a binary min-heap on (t, seq), managed by pushEvent and
	// popEvent. A hand-rolled value heap (rather than container/heap)
	// keeps the hot path free of allocation, interface boxing, and
	// indirect calls; pop order is fully determined by the unique
	// (t, seq) key, so the heap layout cannot influence event order.
	// The heap occupies events[:elen]; the slice itself is kept at
	// capacity so push and pop never reslice.
	events []event
	elen   int

	// ready is a power-of-two ring buffer of runnable processes:
	// FIFO push/pop in O(1), replacing the copy()-per-dispatch slice.
	ready     []*Proc
	readyHead int
	readyLen  int

	yielded  chan struct{}
	current  *Proc
	live     int // spawned processes that have not yet exited
	stopped  bool
	closed   bool
	limit    Time // run-until bound; 0 means none
	allProcs []*Proc

	// Rand is a deterministic source seeded at construction. Workloads
	// should draw from it so runs replay exactly.
	Rand *rand.Rand
	seed int64

	// TraceW, when non-nil, receives a line per scheduling decision.
	// Intended for debugging and for the figure-trace tooling.
	TraceW io.Writer
}

// New returns a simulator with its clock at zero and a deterministic
// random source derived from seed.
func New(seed int64) *Sim {
	return &Sim{
		yielded: make(chan struct{}, 1),
		Rand:    rand.New(rand.NewSource(seed)),
		seed:    seed,
	}
}

// Seed returns the seed the simulator was built with, for a workload
// that needs a random stream of its own: what it draws from Rand shifts
// whenever any other consumer of Rand (the disk's command jitter) draws
// more or less.
func (s *Sim) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// schedule enqueues a callback at time t (clamped to now).
func (s *Sim) schedule(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.pushEvent(event{t: t, seq: s.seq, fn: fn})
}

// eventBefore is the heap order: time, then scheduling order.
func eventBefore(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// pushEvent sifts ev up into the min-heap, moving the hole instead of
// swapping (one write per level plus the final placement). The heap
// occupies events[:elen] of a slice kept at capacity, so a push in the
// steady state is a plain indexed store, not an append.
func (s *Sim) pushEvent(ev event) {
	i := s.elen
	if i == len(s.events) {
		s.events = append(s.events, ev)
	}
	s.elen++
	h := s.events
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// popEvent removes and returns the earliest event. It uses bottom-up
// deletion: the root hole walks down along min-child links with a single
// comparison per level (never comparing against the displaced last leaf),
// and the leaf is then sifted up from the bottom. Because the displaced
// leaf nearly always belongs near the bottom again, the sift-up is
// usually zero or one step, cutting the dominant cost of a pop — the
// two-comparisons-per-level classic sift-down — almost in half.
func (s *Sim) popEvent() event {
	h := s.events
	ev := h[0]
	n := s.elen - 1
	s.elen = n
	last := h[n]
	// The vacated slot keeps its stale value; it is overwritten by the
	// next push, and retention is bounded by the queue's high-water mark.
	if n > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && eventBefore(&h[r], &h[l]) {
				l = r
			}
			h[i] = h[l]
			i = l
		}
		for i > 0 {
			parent := (i - 1) / 2
			if !eventBefore(&last, &h[parent]) {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = last
	}
	return ev
}

// readyPush appends p to the FIFO ready ring.
func (s *Sim) readyPush(p *Proc) {
	if s.readyLen == len(s.ready) {
		n := len(s.ready) * 2
		if n == 0 {
			n = 8
		}
		buf := make([]*Proc, n)
		for i := 0; i < s.readyLen; i++ {
			buf[i] = s.ready[(s.readyHead+i)&(len(s.ready)-1)]
		}
		s.ready = buf
		s.readyHead = 0
	}
	s.ready[(s.readyHead+s.readyLen)&(len(s.ready)-1)] = p
	s.readyLen++
}

// readyPop removes the longest-queued ready process.
func (s *Sim) readyPop() *Proc {
	p := s.ready[s.readyHead]
	s.ready[s.readyHead] = nil
	s.readyHead = (s.readyHead + 1) & (len(s.ready) - 1)
	s.readyLen--
	return p
}

// After runs fn in scheduler context d from now. fn must not block; it may
// wake processes, mutate state, and schedule further events. It models
// things like interrupt delivery.
func (s *Sim) After(d Time, fn func()) {
	s.schedule(s.now+d, fn)
}

// At runs fn in scheduler context at absolute time t (or now, if t is past).
func (s *Sim) At(t Time, fn func()) {
	s.schedule(t, fn)
}

// Stop ends the run; Run returns once the current process yields.
func (s *Sim) Stop() { s.stopped = true }

// procKilled is the panic value used to unwind a process goroutine when
// the simulation is closed. Deferred cleanup in the process body runs
// during the unwind; the spawn wrapper recovers it.
type procKilled struct{}

// Close terminates the simulation and unwinds every process goroutine
// that is still parked (sleeping, blocked, or stopped mid-run). Without
// it, a Sim abandoned after Stop or RunUntil leaks one host goroutine
// per live process — fatal for a runner executing thousands of sims in
// one process. Close must be called from host context, after Run or
// RunUntil has returned; it is idempotent, and the Sim must not be used
// afterwards.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	if s.current != nil {
		// simlint:invariant -- API misuse: Close from inside the simulation.
		panic("sim: Close called from inside the simulation")
	}
	s.closed = true
	for _, p := range s.allProcs {
		if p.state == stateDead {
			continue
		}
		// Every live process goroutine is parked on <-p.wake; the wake
		// is the poison (park sees closed and panics procKilled), and
		// the wrapper acknowledges on yielded once unwound.
		p.wake <- struct{}{}
		<-s.yielded
	}
}

// DeadlockError is returned by Run when no event is pending but live
// processes remain blocked.
type DeadlockError struct {
	At      Time
	Blocked []string // names of blocked processes
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked %v", e.At, len(e.Blocked), e.Blocked)
}

// next advances the simulation to the next dispatch: it drains due
// callbacks inline (no goroutine round-trip) and promotes due sleeper
// wakeups until a runnable process emerges. It returns nil when the run
// is over — Stop was called, the RunUntil bound was reached, or no work
// remains.
func (s *Sim) next() *Proc {
	for {
		if s.stopped {
			return nil
		}
		if s.readyLen > 0 {
			p := s.readyPop()
			if p.state != stateReady {
				continue
			}
			return p
		}
		if s.elen == 0 {
			return nil
		}
		if s.limit > 0 && s.events[0].t > s.limit {
			return nil
		}
		ev := s.popEvent()
		s.now = ev.t
		ev.fn()
	}
}

// dispatchTo records the scheduling decision: p becomes the running
// process and the trace line is emitted. The caller transfers control —
// by waking p's goroutine, or by simply returning when p is the caller
// (the switchless fast path).
func (s *Sim) dispatchTo(p *Proc) {
	p.state = stateRunning
	s.current = p
	if s.TraceW != nil {
		fmt.Fprintf(s.TraceW, "%v run %s\n", s.now, p.name)
	}
}

// Run executes the simulation until no runnable process or pending event
// remains, Stop is called, or (if RunUntil was used) the time bound is
// reached. It returns a *DeadlockError if live processes remain blocked
// with no pending event, and nil otherwise.
//
// Scheduling is hand-off style: the kernel runs on whichever goroutine
// holds control, so a context switch from one process to the next costs
// a single channel hand-off (the yielding goroutine selects the next
// process itself and wakes it directly) instead of a round-trip through
// a dedicated scheduler goroutine. Run only parks until some process
// goroutine reports the run complete on the yielded channel.
func (s *Sim) Run() error {
	if p := s.next(); p != nil {
		s.dispatchTo(p)
		p.wake <- struct{}{}
		<-s.yielded
	}
	s.current = nil
	if !s.stopped && s.limit == 0 && s.live > 0 {
		var blocked []string
		for _, p := range s.allProcs {
			if p.daemon {
				continue
			}
			if p.state == stateBlocked || p.state == stateSleeping {
				blocked = append(blocked, p.name)
			}
		}
		if len(blocked) > 0 {
			return &DeadlockError{At: s.now, Blocked: blocked}
		}
	}
	return nil
}

// RunUntil executes the simulation like Run but stops advancing the clock
// past t. Events scheduled after t remain pending; a subsequent RunUntil
// or Run resumes them.
func (s *Sim) RunUntil(t Time) error {
	s.limit = t
	err := s.Run()
	s.limit = 0
	if s.now < t && !s.stopped {
		s.now = t
	}
	return err
}

// Current returns the running process, or nil when called from scheduler
// context (an After/At callback).
func (s *Sim) Current() *Proc { return s.current }
