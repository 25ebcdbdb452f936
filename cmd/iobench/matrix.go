package main

import (
	"encoding/json"
	"fmt"

	"ufsclust"
	"ufsclust/internal/iobench"
	"ufsclust/internal/runner"
	"ufsclust/internal/vol"
)

// cell is one row of the matrix table: a machine shape, an I/O type,
// the workload sizing, and the telemetry counters published beside the
// transfer rate. Every comparison the report carries is a run of cells
// that differ in one or two Scenario or Params fields.
type cell struct {
	section  string
	sc       ufsclust.Scenario
	kind     iobench.Kind
	prm      iobench.Params
	counters []string
}

// matrixCells is the whole report, in the order it is written.
func matrixCells() []cell {
	var cells []cell
	runA, runB := ufsclust.RunA(), ufsclust.RunB()
	writeRead := []iobench.Kind{iobench.FSW, iobench.FSR}

	// ramatrix: read-ahead policy × {FSR, FRR, FMX} on run A. A 2 MB
	// file against 1 MB of memory, so the steady state has real
	// replacement pressure; pure-random gets enough operations for
	// fixed's accidental trigger matches to show up.
	for _, w := range []struct {
		kind iobench.Kind
		ops  int
	}{{iobench.FSR, 0}, {iobench.FRR, 512}, {iobench.FMX, 16}} {
		for _, ra := range []string{"fixed", "adaptive", "off"} {
			cells = append(cells, cell{"ramatrix",
				ufsclust.Scenario{Run: runA, MemBytes: 1 << 20, ReadAhead: ra},
				w.kind, iobench.Params{FileMB: 2, RandomOps: w.ops},
				[]string{"core.ra_hits", "vm.ra_waste"}})
		}
	}

	// volmatrix: cluster size (run A's 120 KB against run B's 8 KB with
	// rotdelay) × RAID level × stripe width, sequential write and read.
	// The single-spindle concat row is the baseline; the parity counters
	// show how much of RAID-5's write traffic ran the full-stripe fast
	// path versus read-modify-write, which is the whole performance
	// story of striping under a clustering file system.
	for _, rc := range []ufsclust.RunConfig{runA, runB} {
		for _, sh := range []struct {
			cfg     vol.Config
			stripes []int
		}{
			{vol.Config{Level: vol.Concat, Members: 1}, []int{0}},
			{vol.Config{Level: vol.RAID0, Members: 3}, []int{16, 32, 64}},
			{vol.Config{Level: vol.RAID1, Members: 2}, []int{0}},
			{vol.Config{Level: vol.RAID5, Members: 4}, []int{16, 32, 64}},
		} {
			for _, stripe := range sh.stripes {
				cfg := sh.cfg
				cfg.StripeKB = stripe
				for _, kind := range writeRead {
					cells = append(cells, cell{"volmatrix",
						ufsclust.Scenario{Run: rc, Volume: &cfg},
						kind, iobench.Params{FileMB: 2},
						[]string{"vol.sub_requests", "vol.full_stripe_writes", "vol.parity_rmw_rows"}})
				}
			}
		}
	}

	// vecmatrix: the FSTR strided-read cell swept from dense to sparse
	// strides on run A under each Readv strategy. Density — record over
	// stride — is the independent variable: at 1.0 the vector is one
	// contiguous run, and as the stride widens the sieve envelope reads
	// ever more bytes it throws away while list I/O pays per-run
	// transfers that the elevator batches into one sweep. The 2 KB
	// records are sub-block on purpose: that is the regime where
	// sieving's clustered envelope genuinely beats per-run transfers at
	// dense strides, so the sweep exhibits the crossover of Ching et
	// al.'s noncontiguous-I/O study instead of list dominating
	// everywhere.
	for _, strideKB := range []int{2, 4, 8, 16, 32, 64} {
		for _, strategy := range []string{"naive", "sieve", "list", "auto"} {
			cells = append(cells, cell{"vecmatrix",
				ufsclust.Scenario{Run: runA, Vec: strategy},
				iobench.FSTR, iobench.Params{FileMB: 8, Record: 2 << 10, Stride: strideKB << 10},
				[]string{"core.vec_runs", "core.vec_coalesced", "core.sieve_waste", "driver.vec_queued"}})
		}
	}

	// jmatrix: journal mode × {FSW, FSR} on runs A and B. FSW is where
	// the log charges rent — the file grows, so every fsync interval
	// commits inode and indirect block updates to the log before their
	// home locations — and FSR is the control: a read-only steady state
	// stages nothing, so the rate must match the unjournaled machine to
	// the digit.
	for _, rc := range []ufsclust.RunConfig{runA, runB} {
		for _, mode := range []string{"off", "wal", "wal-clustered"} {
			for _, kind := range writeRead {
				cells = append(cells, cell{"jmatrix",
					ufsclust.Scenario{Run: rc, Journal: mode},
					kind, iobench.Params{FileMB: 8},
					[]string{"wal.commits", "wal.commit_sectors", "wal.checkpoints", "wal.checkpoint_blocks", "fs.journal_meta_writes"}})
			}
		}
	}

	// iosize: bytes per read/write call from 2 KB to 1 MB × {FSW, FSR}
	// on runs A and B — the request-size sweep of Kukol & Gray, where
	// the paper's Figure 10 fixes 8 KB. The rate and cpu.system_ns are
	// their throughput and CPU cost per byte; the push counters show how
	// many device writes the delayed-write window turned the calls into.
	for _, rc := range []ufsclust.RunConfig{runA, runB} {
		for _, kb := range []int{2, 8, 32, 128, 512, 1024} {
			for _, kind := range writeRead {
				cells = append(cells, cell{"iosize",
					ufsclust.Scenario{Run: rc},
					kind, iobench.Params{FileMB: 8, IOSize: kb << 10},
					[]string{"cpu.system_ns", "core.pushes", "core.write_ios"}})
			}
		}
	}
	return cells
}

// cellJSON is the one schema every section's cells are written in: the
// Scenario and Params fields the cell sets (the rest are at their
// defaults and omitted), the measured rate, and the cell's counters
// under their telemetry names.
type cellJSON struct {
	Run       string           `json:"run"`
	Kind      iobench.Kind     `json:"kind"`
	FileMB    int              `json:"file_mb"`
	IOKB      int              `json:"io_kb,omitempty"`
	MemMB     int64            `json:"mem_mb,omitempty"`
	RandomOps int              `json:"random_ops,omitempty"`
	ReadAhead string           `json:"ra,omitempty"`
	Vec       string           `json:"vec,omitempty"`
	RecordKB  int              `json:"record_kb,omitempty"`
	StrideKB  int              `json:"stride_kb,omitempty"`
	Journal   string           `json:"journal,omitempty"`
	Vol       string           `json:"vol,omitempty"`
	Members   int              `json:"members,omitempty"`
	StripeKB  int              `json:"stripe_kb,omitempty"`
	RateKBs   float64          `json:"rate_kbs"`
	Counters  map[string]int64 `json:"counters"`
}

// matrixJSON runs every cell of the table on workers host goroutines
// and renders the report: {section: [cell, ...]}. Each cell is an
// independent deterministic simulation, so the bytes do not depend on
// workers.
func matrixJSON(workers int) ([]byte, error) {
	cells := matrixCells()
	out, err := runner.Map(len(cells), runner.Options{Workers: workers}, func(i int) (cellJSON, error) {
		c := cells[i]
		res, snap, err := iobench.RunMeasured(c.sc, c.kind, c.prm)
		if err != nil {
			return cellJSON{}, fmt.Errorf("%s cell %d (%s %s): %w", c.section, i, c.sc.Run.Name, c.kind, err)
		}
		j := cellJSON{
			Run: c.sc.Run.Name, Kind: c.kind, FileMB: c.prm.FileMB, IOKB: c.prm.IOSize >> 10,
			MemMB: c.sc.MemBytes >> 20, RandomOps: c.prm.RandomOps,
			ReadAhead: c.sc.ReadAhead, Vec: c.sc.Vec,
			RecordKB: c.prm.Record >> 10, StrideKB: c.prm.Stride >> 10,
			Journal: c.sc.Journal,
			RateKBs: res.RateKBs(), Counters: make(map[string]int64, len(c.counters)),
		}
		if v := c.sc.Volume; v != nil {
			j.Vol, j.Members, j.StripeKB = v.Level.String(), v.Members, v.StripeKB
		}
		for _, name := range c.counters {
			j.Counters[name] = snap.Get(name)
		}
		return j, nil
	})
	if err != nil {
		return nil, err
	}
	report := map[string][]cellJSON{}
	for i, j := range out {
		report[cells[i].section] = append(report[cells[i].section], j)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	return append(buf, '\n'), err
}
