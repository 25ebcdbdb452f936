package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"ufsclust"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// profileHz is the CPU profile's sampling rate in the traced pass: as
// fast as the kernel's CPU-time timers tick (250 Hz where this was
// written), since a measured phase lasts only tens of milliseconds.
const profileHz = 1000

// minCycles is the fewest cycles a pass measures, however short -seconds
// is: the second is the first one's replay check.
const minCycles = 2

// repResult is what one rep measured. The virtual half must repeat
// exactly from rep to rep; the host half is reported as medians.
type repResult struct {
	virt virtResult

	setup      time.Duration // ufsclust.New through the end of workload setup
	host       time.Duration // wall time spent inside the measured phase's ops
	mallocs    uint64
	allocBytes uint64
	heapInuse  uint64 // at the end of the rep

	failed   int
	firstErr error

	rec        *recorder
	phaseStart time.Time
}

// virtResult is everything a rep observed on the simulated clock.
type virtResult struct {
	Ops     int
	Bytes   int64
	Elapsed sim.Time
	Lat     []sim.Time
	Delta   telemetry.Snapshot
}

// A rep has three stages, each its own simulated process on the same
// machine: setup, the measured phase, and the check. They are separate
// so that the traced pass can set several machines up, profile their
// measured phases back to back, and only then pay for stopping the
// profiler (about 100 ms a time).

// newRep builds a fresh machine and sets the workload up on it; the time
// that takes is the rep's setup_s sample. With traced set the rep records
// bus events and op spans during its measured phase.
func newRep(w *workload, sz sizes, seed int64, traced bool) (*rep, error) {
	// Collect before the timers start so one rep's garbage is not
	// charged to the next.
	runtime.GC()
	start := time.Now()
	opts := []ufsclust.Option{ufsclust.WithSeed(seed)}
	if w.opts != nil {
		opts = append(opts, w.opts()...)
	}
	m, err := ufsclust.New(w.rc, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: build machine: %w", w.name, err)
	}
	r := &rep{
		w: w, m: m, sz: sz,
		rng:  rand.New(rand.NewSource(seed)),
		salt: saltOf(seed),
		lat:  make([]sim.Time, 0, 8192),
		res:  &repResult{},
	}
	if traced {
		r.rec = &recorder{events: make([]stampedEvent, 0, 1<<15), ops: make([]opSpan, 0, 8192)}
		m.Tel.Bus.Subscribe(r.rec.event)
	}
	var setupErr error
	err = m.Run(func(p *sim.Proc) {
		r.p = p
		setupErr = w.setup(r)
	})
	if err == nil {
		err = setupErr
	}
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	r.res.setup = time.Since(start)
	return r, nil
}

// measure runs and times the measured phase.
func (r *rep) measure() error {
	res := r.res
	err := r.m.Run(func(p *sim.Proc) {
		r.p = p
		if r.rec != nil {
			r.rec.on = true
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		pre := r.m.Snapshot()
		v0 := p.Now()
		res.phaseStart = time.Now()

		r.w.body(r)

		res.host = r.inCalls
		res.virt.Elapsed = p.Now() - v0
		res.virt.Delta = r.m.Snapshot().Delta(pre)
		runtime.ReadMemStats(&ms1)
		if r.rec != nil {
			r.rec.on = false
		}
		res.mallocs = ms1.Mallocs - ms0.Mallocs
		res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	})
	if err != nil {
		return fmt.Errorf("%s: %w", r.w.name, err)
	}
	res.virt.Ops, res.virt.Bytes, res.virt.Lat = len(r.lat), r.bytes, r.lat
	if res.virt.Ops == 0 || res.virt.Elapsed <= 0 {
		return fmt.Errorf("%s: measured phase did nothing", r.w.name)
	}
	return nil
}

// finish verifies what the measured phase left behind, closes the
// machine and returns the rep's result. fsck additionally checks the
// image a write workload leaves; a failed check fails every op.
func (r *rep) finish(fsck bool) (*repResult, error) {
	defer r.m.Close()
	if r.w.check != nil {
		if err := r.m.Run(func(p *sim.Proc) {
			r.p = p
			r.w.check(r)
		}); err != nil {
			return nil, fmt.Errorf("%s: check: %w", r.w.name, err)
		}
		if fsck && r.checkErr == nil {
			if rep, err := r.m.Fsck(); err != nil {
				r.checkErr = fmt.Errorf("fsck: %w", err)
			} else if !rep.Clean() {
				r.checkErr = fmt.Errorf("fsck: %d problems, first: %s", len(rep.Problems), rep.Problems[0])
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res := r.res
	res.heapInuse = ms.HeapInuse
	res.failed, res.firstErr, res.rec = r.failed, r.err, r.rec
	if r.checkErr != nil {
		res.failed, res.firstErr = len(r.lat), r.checkErr
	}
	return res, nil
}

// runRep runs one untraced rep from start to finish.
func runRep(w *workload, sz sizes, seed int64, fsck bool) (*repResult, error) {
	r, err := newRep(w, sz, seed, false)
	if err != nil {
		return nil, err
	}
	if err := r.measure(); err != nil {
		r.m.Close()
		return nil, err
	}
	return r.finish(fsck)
}

// A run measures sz.machines differently seeded machines in turn, and
// its virtual metrics are computed over all of them pooled. The drive's
// command jitter and the random workloads' offsets both draw on the seed,
// so one machine's numbers move by a few percent from seed to seed (and
// a percentile of one machine's 2048 calls jumps between rotation
// counts); pooling several steadies them while a given -seed still names
// one exact set of inputs.
func machineSeed(seed int64, j, n int) int64 { return seed*int64(n) + int64(j) }

// runCycle runs one rep on each of the run's machines. A traced cycle
// sets all of them up first, profiles their measured phases back to
// back, and returns that CPU profile.
func runCycle(w *workload, sz sizes, seed int64, traced bool) ([]*repResult, []byte, error) {
	var out []*repResult
	if !traced {
		for j := 0; j < sz.machines; j++ {
			r, err := runRep(w, sz, machineSeed(seed, j, sz.machines), false)
			if err != nil {
				return nil, nil, err
			}
			out = append(out, r)
		}
		return out, nil, nil
	}
	var reps []*rep
	defer func() {
		for _, r := range reps { // Close is idempotent; finish has closed the ones it reached
			r.m.Close()
		}
	}()
	for j := 0; j < sz.machines; j++ {
		r, err := newRep(w, sz, machineSeed(seed, j, sz.machines), true)
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, r)
	}
	// StartCPUProfile always asks for 100 Hz; setting the rate first makes
	// that request fail (with a line on stderr) and leaves ours in force.
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, fmt.Errorf("%s: cpu profile: %w", w.name, err)
	}
	var err error
	for _, r := range reps {
		if err = r.measure(); err != nil {
			break
		}
	}
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	for _, r := range reps {
		res, err := r.finish(false)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
	}
	return out, prof.Bytes(), nil
}

// pass is a series of reps of one workload, all traced or all untraced.
type pass struct {
	w    *workload
	warm *repResult // untraced pass: the warm-up rep, checked but not timed
	// refs[j] is the rep that every rep on machine j must reproduce: the
	// first one of the untraced pass.
	refs     []*repResult
	reps     []*repResult
	profiles [][]byte   // traced pass: one CPU profile per cycle
	pooled   virtResult // the refs' virtual results, summed
}

// runPass measures whole cycles until budget of host time is spent, and
// at least atLeast of them. An untraced pass (refs nil) starts with one
// warm-up rep whose timings are discarded. Every rep must reproduce the
// virtual results of the first rep on the same machine exactly: the
// simulator is deterministic, a rep that differs is a bug, not noise,
// and a traced rep that differs means a bus subscriber perturbed
// simulated state. That is also why only the warm-up pays for fsck (it
// costs several measured phases): later reps leave the same image.
func runPass(w *workload, sz sizes, seed int64, refs []*repResult, budget time.Duration, atLeast int) (*pass, error) {
	ps := &pass{w: w, refs: refs}
	traced := refs != nil
	if !traced {
		warm, err := runRep(w, sz, machineSeed(seed, 0, sz.machines), true)
		if err != nil {
			return nil, err
		}
		ps.warm = warm
		ps.refs = make([]*repResult, sz.machines)
		ps.refs[0] = warm
	}
	start := time.Now()
	for cycles := 0; cycles < atLeast || time.Since(start) < budget; cycles++ {
		cycle, prof, err := runCycle(w, sz, seed, traced)
		if err != nil {
			return nil, err
		}
		if traced {
			ps.profiles = append(ps.profiles, prof)
			for _, r := range ps.reps {
				r.rec = nil // device times and spans come from the last cycle
			}
		}
		for j, r := range cycle {
			if ps.refs[j] == nil {
				ps.refs[j] = r
			} else if diff := virtDiff(&ps.refs[j].virt, &r.virt); diff != "" {
				return nil, fmt.Errorf("%s: cycle %d machine %d (traced=%v) is not a replay of its first rep: %s",
					w.name, cycles, j, traced, diff)
			}
			r.virt = ps.refs[j].virt // identical; keep one copy
			ps.reps = append(ps.reps, r)
		}
	}
	for _, r := range ps.refs {
		ps.pooled.add(&r.virt)
	}
	return ps, nil
}

// add pools o into v: counts, bytes, times and counters sum, latencies
// and histograms merge.
func (v *virtResult) add(o *virtResult) {
	v.Ops += o.Ops
	v.Bytes += o.Bytes
	v.Elapsed += o.Elapsed
	v.Lat = append(v.Lat, o.Lat...)
	sum := map[string]int64{}
	for _, e := range v.Delta.Entries {
		sum[e.Name] = e.Value
	}
	for _, e := range o.Delta.Entries {
		if !e.Gauge {
			sum[e.Name] += e.Value
		}
	}
	v.Delta.Entries = v.Delta.Entries[:0]
	for name, val := range sum {
		v.Delta.Entries = append(v.Delta.Entries, telemetry.Entry{Name: name, Value: val})
	}
	// Snapshot.Get searches by name.
	sort.Slice(v.Delta.Entries, func(i, j int) bool { return v.Delta.Entries[i].Name < v.Delta.Entries[j].Name })
hists:
	for _, h := range o.Delta.Hists {
		for i := range v.Delta.Hists {
			if into := &v.Delta.Hists[i]; into.Name == h.Name {
				for k := range h.Counts {
					into.Counts[k] += h.Counts[k]
				}
				into.Sum += h.Sum
				into.N += h.N
				continue hists
			}
		}
		h.Counts = append([]int64(nil), h.Counts...)
		v.Delta.Hists = append(v.Delta.Hists, h)
	}
}

// virtDiff names what differs between two reps' virtual results, or
// returns "" when they are identical.
func virtDiff(a, b *virtResult) string {
	switch {
	case a.Ops != b.Ops:
		return fmt.Sprintf("ops %d vs %d", a.Ops, b.Ops)
	case a.Bytes != b.Bytes:
		return fmt.Sprintf("bytes %d vs %d", a.Bytes, b.Bytes)
	case a.Elapsed != b.Elapsed:
		return fmt.Sprintf("virtual elapsed %v vs %v", a.Elapsed, b.Elapsed)
	case !reflect.DeepEqual(a.Lat, b.Lat):
		return "per-op virtual latencies"
	}
	var names []string
	for _, e := range a.Delta.Entries {
		if !e.Gauge && b.Delta.Get(e.Name) != e.Value {
			names = append(names, fmt.Sprintf("%s %d vs %d", e.Name, e.Value, b.Delta.Get(e.Name)))
		}
	}
	if len(names) > 0 {
		return fmt.Sprint(names)
	}
	if !reflect.DeepEqual(a.Delta.Hists, b.Delta.Hists) {
		return "histograms"
	}
	return ""
}

// hostStat summarises one host-clock quantity over the reps of a pass.
// Value is what is reported: the median over each machine's reps, averaged
// over the machines. The machines run different inputs (other offsets,
// other jitter), so the median of all reps thrown together would sit on
// whichever machines happen to be central; the mean of medians weighs
// them all and still shrugs off a slow rep. Q1 and Q3 are the quartiles
// over all reps, to show the rep-to-rep spread.
type hostStat struct {
	Value, Q1, Q3 float64
}

func (ps *pass) stat(f func(r *repResult) float64) hostStat {
	n := len(ps.refs)
	perMachine := make([][]float64, n)
	var all []float64
	for i, r := range ps.reps { // cycle after cycle: rep i ran on machine i mod n
		v := f(r)
		perMachine[i%n] = append(perMachine[i%n], v)
		all = append(all, v)
	}
	var st hostStat
	for _, v := range perMachine {
		sort.Float64s(v)
		st.Value += median(v) / float64(n)
	}
	sort.Float64s(all)
	st.Q1, st.Q3 = percentile(all, 0.25), percentile(all, 0.75)
	return st
}

// median of a sorted slice, averaging the middle pair.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (ps *pass) virt() *virtResult { return &ps.pooled }

// hostMetrics are the end-to-end metrics read off the host; see hostStat.
var hostMetrics = []string{"host_us_per_call", "host_allocs_per_call", "host_alloc_bytes_per_call", "setup_s"}

// hostSpread returns every host metric's value and quartiles over the
// reps of the pass.
func (ps *pass) hostSpread() map[string]hostStat {
	ops := func(r *repResult) float64 { return float64(r.virt.Ops) }
	return map[string]hostStat{
		"host_us_per_call":          ps.stat(func(r *repResult) float64 { return float64(r.host.Nanoseconds()) / 1e3 / ops(r) }),
		"host_allocs_per_call":      ps.stat(func(r *repResult) float64 { return float64(r.mallocs) / ops(r) }),
		"host_alloc_bytes_per_call": ps.stat(func(r *repResult) float64 { return float64(r.allocBytes) / ops(r) }),
		"setup_s":                   ps.stat(func(r *repResult) float64 { return r.setup.Seconds() }),
	}
}

// tally sums attempted and failed ops over reps (nil entries skipped) and
// returns the first failure.
func tally(reps ...[]*repResult) (attempted, failed int, first error) {
	for _, list := range reps {
		for _, r := range list {
			if r == nil {
				continue
			}
			attempted += r.virt.Ops
			failed += r.failed
			if first == nil {
				first = r.firstErr
			}
		}
	}
	return attempted, failed, first
}

func mbOf(v *virtResult) float64 { return float64(v.Bytes) / (1 << 20) }

// sortedLatUs returns the per-op virtual latencies in µs, ascending.
func sortedLatUs(v *virtResult) []float64 {
	lat := make([]float64, len(v.Lat))
	for i, t := range v.Lat {
		lat[i] = float64(t) / 1e3
	}
	sort.Float64s(lat)
	return lat
}

// virtEndToEnd computes the end-to-end metrics read off the simulated
// clock. The tail is the mean of the slowest 5 % of calls rather than the
// 99th percentile: call latencies cluster on a few values a disk rotation
// apart, and a single order statistic jumps between them from seed to
// seed, while the mean above one moves smoothly. 5 % rather than 1 %
// because a machine's slowest 20 calls hold two or three stalls of twice
// the rest, and how many varies with the seed.
func (ps *pass) virtEndToEnd() map[string]float64 {
	v := ps.virt()
	lat := sortedLatUs(v)
	tail := lat[len(lat)-(len(lat)+19)/20:]
	var sum float64
	for _, l := range tail {
		sum += l
	}
	return map[string]float64{
		"virt_kbs":           kbs(v),
		"virt_cpu_ms_per_mb": cpuMsPerMB(v),
		"virt_call_tail_us":  sum / float64(len(tail)),
	}
}

func kbs(v *virtResult) float64 { return float64(v.Bytes) / 1024 / v.Elapsed.Seconds() }

func cpuMsPerMB(v *virtResult) float64 { return float64(v.Delta.Get("cpu.system_ns")) / 1e6 / mbOf(v) }
