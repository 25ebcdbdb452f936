// Package musbus approximates MusBus, the multi-user time-sharing
// benchmark the paper used to check that ordinary interactive work
// neither benefits from nor is hurt by clustering: "the benchmark was
// spending most of its time sleeping and the rest of the time running
// small programs ... The largest I/O transfer done by MusBus was around
// 8KB which is the file system block size. In other words, MusBus
// didn't move any substantial amount of data."
package musbus

import (
	"fmt"
	"io"

	"ufsclust"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// Params sizes a run; the machine it runs on is the ufsclust.Scenario
// passed beside it.
type Params struct {
	Users    int      // concurrent simulated users; default 8
	Duration sim.Time // virtual time to run; default 5 minutes

	// TraceW, when non-nil, receives the machine's scheduler trace
	// (sim.Sim.TraceW). Only meaningful for a single Run.
	TraceW io.Writer
}

func (p Params) withDefaults() Params {
	if p.Users == 0 {
		p.Users = 8
	}
	if p.Duration == 0 {
		p.Duration = 5 * 60 * sim.Second
	}
	return p
}

// Result reports one run.
type Result struct {
	Run        string
	Users      int
	Duration   sim.Time
	Iterations int64 // completed user-script iterations
	CPUTime    sim.Time
}

// Throughput returns script iterations per virtual minute.
func (r Result) Throughput() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.Iterations) / (r.Duration.Seconds() / 60)
}

// Run executes the workload on the scenario's machine.
func Run(sc ufsclust.Scenario, prm Params) (Result, error) {
	res, _, err := RunMeasured(sc, prm)
	return res, err
}

// RunMeasured is Run plus a telemetry Snapshot delta spanning the
// timed interval (machine assembly excluded).
func RunMeasured(sc ufsclust.Scenario, prm Params) (Result, telemetry.Snapshot, error) {
	if prm.Users < 0 || prm.Duration < 0 {
		return Result{}, telemetry.Snapshot{}, fmt.Errorf("musbus: %d users for %v, want neither negative", prm.Users, prm.Duration)
	}
	prm = prm.withDefaults()
	sc.Seed += 77
	m, err := sc.New()
	if err != nil {
		return Result{}, telemetry.Snapshot{}, err
	}
	defer m.Close()
	m.Sim.TraceW = prm.TraceW
	res := Result{Run: sc.Run.Name, Users: prm.Users, Duration: prm.Duration}

	var setupErr error
	m.Sim.Spawn("setup", func(p *sim.Proc) {
		if _, err := m.FS.Mkdir(p, "/home"); err != nil {
			setupErr = err
			return
		}
		for u := 0; u < prm.Users; u++ {
			if _, err := m.FS.Mkdir(p, fmt.Sprintf("/home/u%d", u)); err != nil {
				setupErr = err
				return
			}
		}
		for u := 0; u < prm.Users; u++ {
			user := u
			m.Sim.SpawnDaemon(fmt.Sprintf("user%d", user), func(up *sim.Proc) {
				runUser(m, up, user, &res.Iterations)
			})
		}
	})
	pre := m.Snapshot()
	if err := m.Sim.RunUntil(prm.Duration); err != nil {
		return Result{}, telemetry.Snapshot{}, err
	}
	if setupErr != nil {
		return Result{}, telemetry.Snapshot{}, setupErr
	}
	snap := m.Snapshot().Delta(pre)
	res.CPUTime = sim.Time(snap.Get("cpu.system_ns"))
	return res, snap, nil
}

// runUser loops a small interactive script forever: think, run a small
// command (pure CPU), edit a file (create, write <= 8 KB, read it back,
// remove), list the directory.
func runUser(m *ufsclust.Machine, p *sim.Proc, user int, iters *int64) {
	rng := m.Sim.Rand
	dir := fmt.Sprintf("/home/u%d", user)
	buf := make([]byte, 8192)
	n := 0
	for {
		// Think time: "spending most of its time sleeping".
		p.Sleep(sim.Time(500+rng.Intn(2000)) * sim.Millisecond)

		// Small programs (date, ls): short CPU bursts.
		for i := 0; i < 3; i++ {
			m.CPU.Use(p, "musbus-cmd", int64(20000+rng.Intn(80000)))
		}

		// Edit cycle: the largest transfer is one block.
		name := fmt.Sprintf("%s/f%d", dir, n)
		n++
		f, err := m.Engine.Create(p, name)
		if err != nil {
			continue
		}
		size := 512 + rng.Intn(8192-512)
		f.Write(p, 0, buf[:size])
		f.Fsync(p)
		f.Read(p, 0, buf[:size])
		if err := m.Engine.Remove(p, name); err != nil {
			continue
		}

		// ls: read the directory.
		if dip, err := m.FS.Namei(p, dir); err == nil {
			m.FS.ReadDir(p, dip)
		}
		*iters++
	}
}
