// Command simbench measures the host-side performance of the simulation
// kernel on pinned workloads: events per host second, heap allocations
// per event, and host nanoseconds per simulated context switch. It is
// the perf harness behind `make bench`: scripts/bench.sh runs it and
// records the numbers in BENCH_sim.json.
//
// Every workload is fixed (fixed seed, fixed event count, fixed process
// population), so two runs on the same host measure the same work; the
// virtual-time behaviour of the kernel is pinned separately by the
// byte-identical-replay gates. This tool measures host cost only.
//
// Usage:
//
//	simbench [-events N] [-reps N] [-o file]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ufsclust/internal/prefetch"
	"ufsclust/internal/runner"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// Metrics is the host cost of one pinned workload.
type Metrics struct {
	Events         int64   `json:"events"`
	HostNs         int64   `json:"host_ns"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Allocs         uint64  `json:"allocs"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	NsPerSwitch    float64 `json:"ns_per_switch,omitempty"`
}

// Workloads is one full measurement pass.
type Workloads struct {
	// TimerStorm is the headline pinned workload for the events/sec and
	// allocs/event acceptance numbers: 64 self-rescheduling After
	// callbacks, no process switches, pure event-queue throughput.
	TimerStorm Metrics `json:"timer_storm"`
	// ContextSwitch: 4 processes in a Sleep(1us) round-robin; every
	// event is a full scheduler handoff, so NsPerSwitch is the cost of
	// parking one process and resuming the next.
	ContextSwitch Metrics `json:"context_switch"`
	// Pingpong: two processes alternating WaitQ wake/block, the
	// blocking-primitive path (WakeOne + Block) rather than the timer
	// path.
	Pingpong Metrics `json:"waitq_pingpong"`
	// ParallelScale: GOMAXPROCS independent timer-storm sims driven by
	// internal/runner; aggregate events/sec across all cores.
	ParallelScale Metrics `json:"parallel_scale"`
	// TelemetryEmit: Bus.Emit with no subscriber — the overhead every
	// instrumented hot path (disk serve, driver strategy) pays when
	// nobody is listening. The acceptance number is AllocsPerEvent = 0.
	TelemetryEmit Metrics `json:"telemetry_emit"`
	// ReadAhead: the adaptive prefetch policy's decision path — Trigger
	// calls with live Limits over 64 hot files, with periodic collapses
	// mixed in. Every clustered getpage that reaches the trigger point
	// pays this; the acceptance number is near-zero allocations per
	// decision once the per-file detectors exist.
	ReadAhead Metrics `json:"readahead"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	Tool       string    `json:"tool"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	EventTotal int64     `json:"event_total"`
	Current    Workloads `json:"current"`
}

func main() {
	events := flag.Int64("events", 1<<20, "events per workload")
	reps := flag.Int("reps", 3, "measurement repetitions (best time kept)")
	out := flag.String("o", "", "write JSON report to this file (default stdout)")
	flag.Parse()

	rep := Report{
		Tool:       "cmd/simbench",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		EventTotal: *events,
	}
	rep.Current.TimerStorm = measure(*reps, timerStorm(*events))
	rep.Current.ContextSwitch = withSwitch(measure(*reps, contextSwitch(*events)))
	rep.Current.Pingpong = withSwitch(measure(*reps, pingpong(*events)))
	rep.Current.ParallelScale = measure(*reps, parallelScale(*events))
	rep.Current.TelemetryEmit = measure(*reps, telemetryEmit(*events))
	rep.Current.ReadAhead = measure(*reps, readahead(*events))

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "simbench: wrote %s (timer storm: %.0f events/s, %.3f allocs/event)\n",
		*out, rep.Current.TimerStorm.EventsPerSec, rep.Current.TimerStorm.AllocsPerEvent)
}

// measure runs a workload reps times and keeps the fastest run (and its
// allocation count — per-event allocations are deterministic, so the
// fastest run is also representative).
func measure(reps int, w func() int64) Metrics {
	var best Metrics
	for r := 0; r < reps; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		events := w()
		host := time.Since(t0)
		runtime.ReadMemStats(&m1)
		cur := Metrics{
			Events:         events,
			HostNs:         host.Nanoseconds(),
			EventsPerSec:   float64(events) / host.Seconds(),
			Allocs:         m1.Mallocs - m0.Mallocs,
			AllocsPerEvent: float64(m1.Mallocs-m0.Mallocs) / float64(events),
		}
		if best.Events == 0 || cur.HostNs < best.HostNs {
			best = cur
		}
	}
	return best
}

// withSwitch fills NsPerSwitch for workloads where every event is a
// scheduler handoff.
func withSwitch(m Metrics) Metrics {
	m.NsPerSwitch = float64(m.HostNs) / float64(m.Events)
	return m
}

// timerStorm: 64 callback lanes, each rescheduling itself with a
// lane-dependent period until the event budget is spent. No processes,
// so this isolates the event queue: schedule, heap push/pop, dispatch.
func timerStorm(total int64) func() int64 {
	return func() int64 {
		s := sim.New(1)
		defer s.Close()
		const lanes = 64
		scheduled := int64(0)
		remaining := total - lanes
		for l := 0; l < lanes; l++ {
			period := sim.Time(l%7+1) * sim.Microsecond
			var fire func()
			fire = func() {
				if remaining <= 0 {
					return
				}
				remaining--
				scheduled++
				s.After(period, fire)
			}
			scheduled++
			s.After(period, fire)
		}
		if err := s.Run(); err != nil {
			fatal(err)
		}
		return scheduled
	}
}

// contextSwitch: 4 processes in a Sleep round-robin; every event parks
// one process goroutine and resumes another.
func contextSwitch(total int64) func() int64 {
	return func() int64 {
		s := sim.New(1)
		defer s.Close()
		const procs = 4
		per := total / procs
		for i := 0; i < procs; i++ {
			s.Spawn(fmt.Sprintf("t%d", i), func(p *sim.Proc) {
				for j := int64(0); j < per; j++ {
					p.Sleep(sim.Microsecond)
				}
			})
		}
		if err := s.Run(); err != nil {
			fatal(err)
		}
		return per * procs
	}
}

// pingpong: two processes alternating WaitQ wake/block — the blocking
// primitive path rather than the timer path.
func pingpong(total int64) func() int64 {
	return func() int64 {
		s := sim.New(1)
		defer s.Close()
		var qa, qb sim.WaitQ
		rounds := total / 2
		done := false
		// pong spawns first so it is already parked when ping wakes it.
		s.Spawn("pong", func(p *sim.Proc) {
			for {
				p.Block(&qb)
				if done {
					return
				}
				qa.WakeOne()
			}
		})
		s.Spawn("ping", func(p *sim.Proc) {
			for j := int64(0); j < rounds; j++ {
				qb.WakeOne()
				p.Block(&qa)
			}
			done = true
			qb.WakeOne()
		})
		if err := s.Run(); err != nil {
			fatal(err)
		}
		return rounds * 2
	}
}

// parallelScale: GOMAXPROCS independent timer storms through the
// runner's worker pool; aggregate throughput across all cores.
func parallelScale(total int64) func() int64 {
	return func() int64 {
		w := runtime.GOMAXPROCS(0)
		per := total / int64(w)
		counts, err := runner.Map(w, runner.Options{}, func(job int) (int64, error) {
			return timerStorm(per)(), nil
		})
		if err != nil {
			fatal(err)
		}
		var sum int64
		for _, c := range counts {
			sum += c
		}
		return sum
	}
}

// telemetryEmit: the zero-subscriber event-bus path. Every instrumented
// subsystem calls Bus.Emit unconditionally; this pins its cost (and its
// zero heap allocations) when no JSONL writer or trace is attached.
func telemetryEmit(total int64) func() int64 {
	return func() int64 {
		bus := &telemetry.Bus{}
		for i := int64(0); i < total; i++ {
			bus.Emit(telemetry.Event{
				T:      sim.Time(i),
				Kind:   telemetry.EvIOStart,
				Sector: i,
				Bytes:  8192,
				Depth:  i & 15,
			})
		}
		return total
	}
}

// readahead: the adaptive policy's Trigger path over 64 hot files. The
// access mix is fixed — four sequential confirmations to one random
// signal, a collapse every 1024 calls — so the detector map reaches
// steady state immediately and the number measures pure decision cost.
func readahead(total int64) func() int64 {
	return func() int64 {
		pol := prefetch.NewAdaptive(prefetch.AdaptiveConfig{})
		lim := prefetch.Limits{ClusterBlocks: 15, BlockBytes: 8192, FreePages: 4096, WriteHeadroom: 1 << 20}
		for i := int64(0); i < total; i++ {
			ino := int32(i & 63)
			if i&1023 == 1023 {
				pol.Random(ino)
				continue
			}
			pol.Trigger(ino, i%5 != 0, lim)
		}
		return total
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
	os.Exit(1)
}
