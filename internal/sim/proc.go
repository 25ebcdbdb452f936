package sim

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateSleeping
	stateBlocked
	stateDead
)

// Proc is a simulated thread of control. Its body function runs on a
// dedicated goroutine, but the kernel guarantees that at most one process
// (or the scheduler) executes at any instant, handing control over
// channels in a strict token-passing chain. Shared simulation state
// therefore needs no locking.
type Proc struct {
	sim   *Sim
	name  string
	wake  chan struct{}
	state procState

	// wakeFn is the prebuilt timer-expiry closure for this process,
	// allocated once at Spawn so Sleep schedules a plain event with no
	// per-call allocation. A stale wakeup (the process was already woken
	// through a wait queue) is a no-op thanks to the state check.
	wakeFn func()

	// daemon processes (device service loops, the pageout daemon) are
	// expected to block forever and are excluded from deadlock
	// detection and run-completion accounting.
	daemon bool

	// blockedOn names the wait queue the process is parked on, for
	// deadlock diagnostics.
	blockedOn string
}

// Spawn creates a process named name running fn and makes it runnable at
// the current virtual time. It may be called before Run or from any
// process or scheduler context during the run.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	// The wake channel is buffered so a dispatcher handing control to a
	// freshly spawned process does not stall until its goroutine first
	// reaches park; the token protocol guarantees at most one
	// outstanding wake per process.
	p := &Proc{sim: s, name: name, wake: make(chan struct{}, 1), state: stateReady}
	p.wakeFn = func() {
		if p.state == stateSleeping {
			p.state = stateReady
			s.readyPush(p)
		}
	}
	s.live++
	s.allProcs = append(s.allProcs, p)
	go func() {
		defer func() {
			p.state = stateDead
			s.live--
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					// A genuine panic in the process body: re-raise it.
					// simlint:invariant -- propagating the body's own panic.
					panic(r)
				}
				s.yielded <- struct{}{} // acknowledge Close
				return
			}
			// The process finished: continue the dispatch chain from
			// here, or report the run complete.
			s.current = nil
			if q := s.next(); q != nil {
				s.dispatchTo(q)
				q.wake <- struct{}{}
			} else {
				s.yielded <- struct{}{}
			}
		}()
		p.park()
		fn(p)
	}()
	s.readyPush(p)
	return p
}

// SpawnDaemon creates a process like Spawn but marks it as a daemon:
// it may block forever without being reported as deadlocked.
func (s *Sim) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	p := s.Spawn(name, fn)
	p.daemon = true
	return p
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// park blocks until a dispatcher (or Close) hands the token back. A
// wake received after Close is poison: it unwinds the goroutine.
func (p *Proc) park() {
	<-p.wake
	if p.sim.closed {
		// simlint:invariant -- controlled unwind of a poisoned process; recovered in Spawn.
		panic(procKilled{})
	}
}

// yield hands the processor over after the caller has queued itself
// (or an event) for later resumption. The yielding goroutine runs the
// scheduler itself: it drains due callbacks, picks the next process,
// and wakes that goroutine directly — one hand-off per context switch.
// If the next runnable process is the caller itself, control never
// leaves this goroutine (the switchless fast path). If the run is over,
// control returns to Run via the yielded channel and the caller parks.
func (p *Proc) yield() {
	s := p.sim
	if s.closed {
		// A deferred cleanup called a blocking primitive while the
		// goroutine unwinds from Close; keep unwinding.
		// simlint:invariant -- controlled unwind of a poisoned process; recovered in Spawn.
		panic(procKilled{})
	}
	s.current = nil
	q := s.next()
	switch {
	case q == p:
		s.dispatchTo(p)
	case q != nil:
		s.dispatchTo(q)
		q.wake <- struct{}{}
		p.park()
	default:
		s.yielded <- struct{}{}
		p.park()
	}
}

// Sleep suspends the process for d of virtual time. A non-positive d
// still yields the processor, letting other ready processes run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.state = stateSleeping
	p.sim.schedule(p.sim.now+d, p.wakeFn)
	p.yield()
}

// Yield makes the process runnable again after all currently-ready
// processes have run, without advancing the clock.
func (p *Proc) Yield() {
	p.state = stateReady
	p.sim.readyPush(p)
	p.yield()
}

// Block parks the process on q until some other party calls q.WakeOne or
// q.WakeAll. Callers almost always re-check their predicate in a loop:
//
//	for !cond() {
//		p.Block(&q)
//	}
func (p *Proc) Block(q *WaitQ) {
	p.state = stateBlocked
	p.blockedOn = q.Name
	q.procs = append(q.procs, p)
	p.yield()
	p.blockedOn = ""
}
