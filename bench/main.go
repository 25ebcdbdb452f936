// Command bench is this repository's benchmark: eight workloads driven
// through the root API on fresh simulated machines, measured on two
// clocks — the simulated one the paper's claims are made in, and the
// host's, which is what running the simulator costs — and attributed to
// the layers by name. See README.md beside this file.
//
// The driver runs it once per workload and pass:
//
//	bash bench/run.sh --workload seq_read_clustered --seed 1 --seconds 10 --trace 0
//
// and reads the JSON object on the last line of standard output. With no
// --workload it runs all eight, and with no --trace both passes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// Load shape: closed loop, one simulated client process per machine, one
// host process pinned to one OS thread's worth of Go scheduling. The
// simulator hands control from goroutine to goroutine and never runs two
// at once, so a second P only adds migration noise.
const gomaxprocs = 1

func main() {
	runtime.GOMAXPROCS(gomaxprocs)
	var (
		names     = flag.String("workload", "", "comma-separated workload names (default: all)")
		seed      = flag.Int64("seed", 1, "seeds the machine and the benchmark's offset generator")
		seconds   = flag.Float64("seconds", 5, "host seconds each pass measures for")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced; -1: both")
		outPath   = flag.String("o", "", "also write every result to this file as JSON")
		traceDir  = flag.String("tracedir", ".bench_build/trace", "directory the traced pass writes span JSONL into")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced pass twice and fail unless the two agree within the bounds")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *manifest {
		fmt.Println(manifestJSON())
		return
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		fatal(fmt.Errorf("need -seconds > 0 and -trace 0, 1 or -1"))
	}
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("# %s %s/%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g file=%dMB small_files=%d machines=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), gomaxprocs,
		*seed, *seconds, fullFileBytes>>20, fullSmallFiles, fullSizes.machines)

	if *selfcheck {
		ok := true
		for i := range selected {
			agree, err := selfCheck(&selected[i], *seed, budget)
			if err != nil {
				fatal(err)
			}
			ok = ok && agree
		}
		if !ok {
			fatal(fmt.Errorf("selfcheck: two runs of the same code disagree"))
		}
		return
	}

	var ladder map[string]rungResult
	if *trace != 0 {
		if ladder, err = runLadder(fullSizes, *seed); err != nil {
			fatal(err)
		}
	}
	var results []*result
	for i := range selected {
		w := &selected[i]
		if *trace != 1 {
			ps, err := runPass(w, fullSizes, *seed, nil, budget, minCycles)
			if err != nil {
				fatal(err)
			}
			results = append(results, reportEndToEnd(ps))
		}
		if *trace != 0 {
			res, err := tracedResult(w, fullSizes, *seed, budget, minCycles, *traceDir, ladder)
			if err != nil {
				fatal(err)
			}
			results = append(results, res)
		}
	}
	if *outPath != "" {
		doc, err := json.MarshalIndent(map[string]any{
			"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": gomaxprocs,
			"seed": *seed, "seconds": *seconds, "results": results,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(doc, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func selectWorkloads(names string) ([]workload, error) {
	all := workloads()
	if names == "" {
		return all, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// tracedResult runs the traced pass of one workload: a quarter of the
// budget untraced, to measure the tracing overhead against, the rest
// traced against the untraced warm-up as reference.
func tracedResult(w *workload, sz sizes, seed int64, budget time.Duration, atLeast int, traceDir string, ladder map[string]rungResult) (*result, error) {
	untraced, err := runPass(w, sz, seed, nil, budget/4, atLeast)
	if err != nil {
		return nil, err
	}
	traced, err := runPass(w, sz, seed, untraced.refs, budget*3/4, atLeast)
	if err != nil {
		return nil, err
	}
	metrics, err := perLayer(untraced, traced, ladder)
	if err != nil {
		return nil, err
	}
	last := traced.reps[len(traced.reps)-1]
	path, err := writeSpans(traceDir, w.name, last.rec.spans(last.phaseStart))
	if err != nil {
		return nil, fmt.Errorf("%s: write spans: %w", w.name, err)
	}
	res := report(traced, 1, metrics, perLayerDefs(), append(untraced.reps, untraced.warm))
	fmt.Fprintf(os.Stderr, "# spans of the last traced rep: %s\n", path)
	return res, nil
}

// driverLine is the object the driver reads from the last line of stdout.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is one pass of one workload as -o records it.
type result struct {
	driverLine
	Workload string              `json:"workload,omitempty"`
	Trace    int                 `json:"trace"`
	Reps     int                 `json:"reps,omitempty"`
	Spread   map[string]hostStat `json:"spread,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one pass as a table and, last, as the driver's JSON
// line. Ops of the warm-up and of the extra reps count as attempted too:
// they were checked like the rest.
func report(ps *pass, trace int, values map[string]float64, defs []metricDef, extra []*repResult) *result {
	attempted, failed, first := tally([]*repResult{ps.warm}, ps.reps, extra)
	res := &result{
		driverLine: driverLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}},
		Workload:   ps.w.name, Trace: trace, Reps: len(ps.reps),
	}
	fmt.Printf("\n%s  trace=%d  reps=%d on %d machines  ops=%d  fail_share=%g\n", ps.w.name, trace, len(ps.reps),
		len(ps.refs), attempted, float64(failed)/float64(attempted))
	if first != nil {
		fmt.Printf("  first failure: %v\n", first)
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %g%%", d.Bound*100)
		}
		fmt.Printf("  %-36s %14.6g %-6s %s better%s\n", d.Name, values[d.Name], d.Unit, d.Better, bound)
	}
	if trace == 0 {
		res.Spread = ps.hostSpread()
		for _, name := range hostMetrics {
			s := res.Spread[name]
			fmt.Printf("  spread over %d reps: %-26s value %.6g  rep quartiles %.6g .. %.6g\n", len(ps.reps), name, s.Value, s.Q1, s.Q3)
		}
	}
	line, err := json.Marshal(res.driverLine)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	return res
}

func reportEndToEnd(ps *pass) *result {
	values := ps.virtEndToEnd()
	for name, s := range ps.hostSpread() {
		values[name] = s.Value
	}
	return report(ps, 0, values, endToEndDefs, nil)
}

// selfCheck runs the untraced pass of one workload twice and reports
// whether the two runs agree: virtual metrics and failures exactly, each
// host metric's medians within its own bound.
func selfCheck(w *workload, seed int64, budget time.Duration) (bool, error) {
	var runs [2]*result
	for i := range runs {
		ps, err := runPass(w, fullSizes, seed, nil, budget, minCycles)
		if err != nil {
			return false, err
		}
		runs[i] = reportEndToEnd(ps)
	}
	ok := runs[0].Failed == 0 && runs[1].Failed == 0
	for _, d := range endToEndDefs {
		a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
		limit := d.Bound
		if strings.HasPrefix(d.Name, "virt_") {
			limit = 0
		}
		// Either of the two runs could have been the parent.
		diff := math.Abs(b-a) / math.Min(a, b)
		verdict := "ok"
		if diff > limit {
			verdict, ok = "DISAGREE", false
		}
		fmt.Printf("selfcheck %-20s %-26s %14.6g %14.6g  %+.2f%%  limit %g%%  %s\n",
			w.name, d.Name, a, b, (b-a)/a*100, limit*100, verdict)
	}
	return ok, nil
}

// manifestJSON renders BENCHMARK.json from the workload and metric
// catalogues, so the file cannot drift from what the program emits.
func manifestJSON() string {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []workloadDef
	for _, w := range workloads() {
		ws = append(ws, workloadDef{w.name, w.why})
	}
	doc, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, ws, endToEndDefs, perLayerDefs()}, "", "  ")
	if err != nil {
		fatal(err)
	}
	return string(doc)
}

// runSeconds is the --seconds the driver passes; the bounds in
// endToEndDefs were sized at this run length.
const runSeconds = 10
