package iobench

import (
	"fmt"

	"ufsclust"
	"ufsclust/internal/alloclab"
	"ufsclust/internal/musbus"
	"ufsclust/internal/runner"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// Cell is one measurement: the machine it runs on, what it runs, and
// the telemetry counters published beside its result. By default it is
// an IObench cell, Kind sized by Params; a non-nil Alloc makes it the
// allocator-contiguity experiment instead, a non-nil MusBus the
// time-sharing mix.
//
// Options, applied after the Scenario's, make an IObench cell's machine
// a shape no Scenario field names — driver coalescing, a write limit in
// bytes, a Further Work switch — and Variant labels it in the row. They
// are harness data for the ablation cells, not settings of the machine.
type Cell struct {
	Scenario ufsclust.Scenario
	Variant  string
	Options  []ufsclust.Option
	Kind     Kind
	Params   Params
	Alloc    *alloclab.Case
	MusBus   *musbus.Params
	Counters []string
}

// Row is a measured Cell in the one schema every section of
// BENCH_iobench.json is written in: the Scenario and workload fields the
// cell sets (the rest are at their defaults and omitted; file_mb is
// always the file the cell ran), the result — rate_kbs for IObench, the
// extents for the allocator, the iterations for MusBus — and the cell's
// counters under their telemetry names.
type Row struct {
	Run         string           `json:"run"`
	Variant     string           `json:"variant,omitempty"`
	Kind        Kind             `json:"kind,omitempty"`
	FileMB      int              `json:"file_mb,omitempty"`
	IOKB        int              `json:"io_kb,omitempty"`
	MemMB       int64            `json:"mem_mb,omitempty"`
	RandomOps   int              `json:"random_ops,omitempty"`
	ReadAhead   string           `json:"ra,omitempty"`
	Vec         string           `json:"vec,omitempty"`
	RecordKB    int              `json:"record_kb,omitempty"`
	StrideKB    int              `json:"stride_kb,omitempty"`
	Journal     string           `json:"journal,omitempty"`
	Vol         string           `json:"vol,omitempty"`
	Members     int              `json:"members,omitempty"`
	StripeKB    int              `json:"stripe_kb,omitempty"`
	Full        float64          `json:"full,omitempty"`
	Churn       int              `json:"churn,omitempty"`
	Users       int              `json:"users,omitempty"`
	Minutes     int              `json:"minutes,omitempty"`
	RateKBs     float64          `json:"rate_kbs,omitempty"`
	Extents     int              `json:"extents,omitempty"`
	AvgExtentKB float64          `json:"avg_extent_kb,omitempty"`
	MaxExtentKB float64          `json:"max_extent_kb,omitempty"`
	Iterations  int64            `json:"iterations,omitempty"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// Measure runs the cell on a fresh machine and returns its row.
func (c Cell) Measure() (Row, error) {
	sc := c.Scenario
	row := Row{Run: sc.Run.Name, Variant: c.Variant, MemMB: sc.MemBytes >> 20, ReadAhead: sc.ReadAhead, Vec: sc.Vec, Journal: sc.Journal}
	if (len(c.Options) > 0) != (c.Variant != "") || (len(c.Options) > 0 && (c.Alloc != nil || c.MusBus != nil)) {
		return Row{}, fmt.Errorf("iobench: run %s variant %q: extra options need a variant label and an IObench cell", sc.Run.Name, c.Variant)
	}
	if v := sc.Volume; v != nil {
		row.Vol, row.Members, row.StripeKB = v.Level.String(), v.Members, v.StripeKB
	}
	var snap telemetry.Snapshot
	switch {
	case c.Alloc != nil:
		rep, err := alloclab.Measure(sc, *c.Alloc)
		if err != nil {
			return Row{}, err
		}
		row.FileMB, row.Full, row.Churn = int(c.Alloc.FileBytes>>20), c.Alloc.Age.TargetFull, c.Alloc.Age.Churn
		row.Extents = len(rep.Extents)
		row.AvgExtentKB, row.MaxExtentKB = float64(rep.AvgExtent())/1024, float64(rep.MaxExtent())/1024
	case c.MusBus != nil:
		res, s, err := musbus.RunMeasured(sc, *c.MusBus)
		if err != nil {
			return Row{}, fmt.Errorf("run %s MusBus: %w", sc.Run.Name, err)
		}
		row.Users, row.Minutes, row.Iterations = res.Users, int(res.Duration/(60*sim.Second)), res.Iterations
		snap = s
	default:
		res, s, err := RunMeasured(sc, c.Kind, c.Params, c.Options...)
		if err != nil {
			return Row{}, fmt.Errorf("run %s %s: %w", sc.Run.Name, c.Kind, err)
		}
		p := c.Params
		row.Kind, row.FileMB, row.IOKB, row.RandomOps = c.Kind, p.withDefaults().FileMB, p.IOSize>>10, p.RandomOps
		row.RecordKB, row.StrideKB = p.Record>>10, p.Stride>>10
		row.RateKBs = res.RateKBs()
		snap = s
	}
	if len(c.Counters) > 0 {
		row.Counters = make(map[string]int64, len(c.Counters))
		for _, name := range c.Counters {
			row.Counters[name] = snap.Get(name)
		}
	}
	return row, nil
}

// MeasureAll measures every cell on workers host goroutines (0 means
// GOMAXPROCS, 1 means serial) and returns the rows in cell order. Each
// cell is an independent machine seeded only by its Scenario, so the
// rows — and any table rendered from them — do not depend on workers.
func MeasureAll(cells []Cell, workers int) ([]Row, error) {
	for _, c := range cells {
		if (c.Params.TraceW != nil || c.Params.EventW != nil) && workers != 1 {
			return nil, fmt.Errorf("iobench: TraceW/EventW require serial execution (workers=1)")
		}
	}
	return runner.Map(len(cells), runner.Options{Workers: workers}, func(i int) (Row, error) {
		return cells[i].Measure()
	})
}
