package main

import (
	"encoding/json"

	"ufsclust"
	"ufsclust/internal/alloclab"
	"ufsclust/internal/iobench"
	"ufsclust/internal/musbus"
	"ufsclust/internal/vol"
)

// cell is one row of the matrix table: the section it is published in
// and the measurement. Every comparison the report carries is a run of
// cells that differ in one or two Scenario or Params fields.
type cell struct {
	section string
	iobench.Cell
}

// ioCell is the common IObench cell.
func ioCell(section string, sc ufsclust.Scenario, kind iobench.Kind, prm iobench.Params, counters ...string) cell {
	return cell{section, iobench.Cell{Scenario: sc, Kind: kind, Params: prm, Counters: counters}}
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
			cells = append(cells, ioCell("ramatrix",
				ufsclust.Scenario{Run: runA, MemBytes: 1 << 20, ReadAhead: ra},
				w.kind, iobench.Params{FileMB: 2, RandomOps: w.ops},
				"core.ra_hits", "vm.ra_waste"))
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
					cells = append(cells, ioCell("volmatrix",
						ufsclust.Scenario{Run: rc, Volume: &cfg},
						kind, iobench.Params{FileMB: 2},
						"vol.sub_requests", "vol.full_stripe_writes", "vol.parity_rmw_rows"))
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
			cells = append(cells, ioCell("vecmatrix",
				ufsclust.Scenario{Run: runA, Vec: strategy},
				iobench.FSTR, iobench.Params{FileMB: 8, Record: 2 << 10, Stride: strideKB << 10},
				"core.vec_runs", "core.vec_coalesced", "core.sieve_waste", "driver.vec_queued"))
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
				cells = append(cells, ioCell("jmatrix",
					ufsclust.Scenario{Run: rc, Journal: mode},
					kind, iobench.Params{FileMB: 8},
					"wal.commits", "wal.commit_sectors", "wal.checkpoints", "wal.checkpoint_blocks", "fs.journal_meta_writes"))
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
				cells = append(cells, ioCell("iosize",
					ufsclust.Scenario{Run: rc},
					kind, iobench.Params{FileMB: 8, IOSize: kb << 10},
					"cpu.system_ns", "core.pushes", "core.write_ios"))
			}
		}
	}

	// paper: every number of the paper's evaluation that EXPERIMENTS.md
	// prints, at the paper's sizes and the commands' defaults — Figure 10
	// (and so Figure 11 and the introduction's "half a 12 MIPS CPU for
	// half the disk", which is run D's FSR cell), Figure 12's mmap read,
	// the allocator's best and worst case, and MusBus on every run. The
	// tables in EXPERIMENTS.md are rendered from these cells alone.
	for _, rc := range ufsclust.Runs() {
		for _, kind := range iobench.Kinds() {
			cells = append(cells, ioCell("paper", ufsclust.Scenario{Run: rc}, kind, iobench.Params{FileMB: 16},
				"cpu.system_ns", "core.write_stalls"))
		}
	}
	for _, rc := range []ufsclust.RunConfig{runA, ufsclust.RunD()} {
		cells = append(cells, ioCell("paper", ufsclust.Scenario{Run: rc}, iobench.FSM, iobench.Params{FileMB: 16},
			"cpu.system_ns", "cpu.copy.ns", "cpu.fault.ns", "cpu.getpage.ns"))
	}
	for _, c := range []alloclab.Case{
		{FileBytes: 13 << 20},
		{FileBytes: 16 << 20, Age: alloclab.AgeOpts{TargetFull: 0.85, Churn: 3}},
	} {
		cells = append(cells, cell{"paper", iobench.Cell{Scenario: ufsclust.Scenario{Run: runA}, Alloc: &c}})
	}
	for _, rc := range ufsclust.Runs() {
		cells = append(cells, cell{"paper", iobench.Cell{Scenario: ufsclust.Scenario{Run: rc},
			MusBus: &musbus.Params{}, Counters: []string{"cpu.system_ns"}}})
	}
	return cells
}

// matrixJSON measures every cell of the table on workers host
// goroutines and renders the report: {section: [row, ...]}. Each cell is
// an independent deterministic simulation, so the bytes do not depend on
// workers.
func matrixJSON(workers int) ([]byte, error) {
	cells := matrixCells()
	measure := make([]iobench.Cell, len(cells))
	for i, c := range cells {
		measure[i] = c.Cell
	}
	rows, err := iobench.MeasureAll(measure, workers)
	if err != nil {
		return nil, err
	}
	report := map[string][]iobench.Row{}
	for i, row := range rows {
		report[cells[i].section] = append(report[cells[i].section], row)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	return append(buf, '\n'), err
}
