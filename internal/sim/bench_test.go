package sim

import "testing"

// The kernel's three hot paths, each armed on a fresh Sim as a load
// that never finishes, so a benchmark or an allocation assertion can
// step it in its steady state with RunUntil. Each returns the count of
// events (timer callbacks or process hand-offs) it has executed.

// timerStorm is 64 self-rescheduling After callbacks with
// lane-dependent periods and no processes: schedule, heap push/pop and
// dispatch, nothing else.
func timerStorm(s *Sim) *int64 {
	n := new(int64)
	for l := 0; l < 64; l++ {
		period := Time(l%7+1) * Microsecond
		var fire func()
		fire = func() {
			*n++
			s.After(period, fire)
		}
		s.After(period, fire)
	}
	return n
}

// sleepRoundRobin is 4 processes each sleeping 1 us in a loop: every
// event parks one process goroutine and resumes the next.
func sleepRoundRobin(s *Sim) *int64 {
	n := new(int64)
	for _, name := range []string{"t0", "t1", "t2", "t3"} {
		s.SpawnDaemon(name, func(p *Proc) {
			for {
				p.Sleep(Microsecond)
				*n++
			}
		})
	}
	return n
}

// waitqPingPong is two processes alternating WakeOne and Block — the
// blocking-primitive path rather than the timer path. A rally takes no
// virtual time, so ping sleeps 1 us after every 32 exchanges to give
// RunUntil a bound to stop at.
func waitqPingPong(s *Sim) *int64 {
	n := new(int64)
	var qa, qb WaitQ
	// pong spawns first so it is already parked when ping wakes it.
	s.SpawnDaemon("pong", func(p *Proc) {
		for {
			p.Block(&qb)
			*n++
			qa.WakeOne()
		}
	})
	s.SpawnDaemon("ping", func(p *Proc) {
		for {
			for i := 0; i < 32; i++ {
				qb.WakeOne()
				p.Block(&qa)
				*n++
			}
			p.Sleep(Microsecond)
		}
	})
	return n
}

// step advances a load by 16 us of virtual time, some hundreds of events.
func step(tb testing.TB, s *Sim) {
	if err := s.RunUntil(s.Now() + 16*Microsecond); err != nil {
		tb.Fatal(err)
	}
}

// benchKernel reports the host cost of one event of load.
func benchKernel(b *testing.B, load func(*Sim) *int64) {
	s := New(1)
	defer s.Close()
	n := load(s)
	b.ReportAllocs()
	b.ResetTimer()
	for *n < int64(b.N) {
		step(b, s)
	}
}

func BenchmarkTimerStorm(b *testing.B)      { benchKernel(b, timerStorm) }
func BenchmarkSleepRoundRobin(b *testing.B) { benchKernel(b, sleepRoundRobin) }
func BenchmarkWaitQPingPong(b *testing.B)   { benchKernel(b, waitqPingPong) }

// TestKernelSteadyStateAllocatesNothing is the gate on the numbers the
// benchmarks above report: once the event heap, the ready ring and the
// wait queues have reached their high-water marks, scheduling an event,
// dispatching it, handing the processor from one process to the next
// through Sleep, and a WaitQ wake/block pair all run without touching
// the host heap. One allocation per event on any of these paths (a
// fresh closure per Sleep, an append that reslices) fails the test.
func TestKernelSteadyStateAllocatesNothing(t *testing.T) {
	for _, l := range []struct {
		name string
		load func(*Sim) *int64
	}{
		{"schedule+dispatch", timerStorm},
		{"Sleep hand-off", sleepRoundRobin},
		{"WaitQ wake/block", waitqPingPong},
	} {
		t.Run(l.name, func(t *testing.T) {
			s := New(1)
			defer s.Close()
			n := l.load(s)
			step(t, s)
			before := *n
			allocs := testing.AllocsPerRun(100, func() { step(t, s) })
			if events := (*n - before) / 101; events < 16 {
				t.Fatalf("a step ran %d events; the load is not exercising the kernel", events)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per 16 us step in the steady state, want 0", allocs)
			}
		})
	}
}
