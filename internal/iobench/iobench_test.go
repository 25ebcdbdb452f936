package iobench

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"ufsclust"
	"ufsclust/internal/alloclab"
)

// smallParams keeps unit tests quick; the full 16 MB paper configuration
// is the paper section of cmd/iobench's matrix.
func smallParams() Params {
	return Params{FileMB: 8, RandomOps: 192}
}

func TestKindsOrder(t *testing.T) {
	want := []Kind{FSR, FSU, FSW, FRR, FRU}
	got := Kinds()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Kinds() = %v", got)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.FileMB != 16 || p.IOSize != 8192 || p.RandomOps != 2048 {
		t.Fatalf("defaults = %+v", p)
	}
}

func TestRunProducesPositiveRate(t *testing.T) {
	res, err := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, FSR, smallParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.RateKBs() <= 0 || res.Elapsed <= 0 || res.Bytes != 8<<20 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.CPUTime <= 0 {
		t.Fatal("no CPU time accounted")
	}
}

// TestTableFormatting renders Figures 10 and 11 from two synthetic runs:
// the measured rows beside the paper's, and Figure 11's ratios derived
// from the rates for both.
func TestTableFormatting(t *testing.T) {
	var rows []Row
	for _, run := range []struct {
		name string
		rate float64
	}{{"A", 1024}, {"D", 512}} {
		for _, k := range Kinds() {
			rows = append(rows, Row{Run: run.name, Kind: k, FileMB: 1, RateKBs: run.rate})
		}
	}
	rates, err := RenderPaper("fig10", rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"1 MB file", "| paper A | 1610 |", "| **measured A** | **1024** |", "| **measured D** | **512** |"} {
		if !strings.Contains(rates, want) {
			t.Errorf("rates table lacks %q:\n%s", want, rates)
		}
	}
	ratios, err := RenderPaper("fig11", rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| paper A/D | 2.15 |", "| **measured A/D** | **2.00** |"} {
		if !strings.Contains(ratios, want) {
			t.Errorf("ratios table lacks %q:\n%s", want, ratios)
		}
	}
	if _, err := RenderPaper("fig11", rows[:len(Kinds())]); err == nil {
		t.Error("Figure 11 rendered from one run")
	}
	if _, err := RenderPaper("fig10", rows[1:]); err == nil {
		t.Error("Figure 10 rendered with a column missing")
	}
	if _, err := RenderPaper("fig12", rows); err == nil {
		t.Error("Figure 12 rendered without FSM rows")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	prm := smallParams()
	r1, err := Run(ufsclust.Scenario{Run: ufsclust.RunB()}, FSR, prm)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(ufsclust.Scenario{Run: ufsclust.RunB()}, FSR, prm)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed != r2.Elapsed || r1.CPUTime != r2.CPUTime {
		t.Fatalf("benchmark not reproducible: %v/%v vs %v/%v",
			r1.Elapsed, r1.CPUTime, r2.Elapsed, r2.CPUTime)
	}
}

// TestSweepDeterministicAcrossWorkers pins the sweep contract of
// allocator cells: the parallel aging sweep produces exactly the serial
// rows, case for case, because every case is an independent machine.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	sc := ufsclust.Scenario{Run: ufsclust.RunA()}
	cells := []Cell{
		{Scenario: sc, Alloc: &alloclab.Case{FileBytes: 2 << 20, Age: alloclab.AgeOpts{TargetFull: 0.6, Churn: 1}}},
		{Scenario: sc, Alloc: &alloclab.Case{FileBytes: 2 << 20, Age: alloclab.AgeOpts{TargetFull: 0.8, Churn: 1}}},
	}
	serial, err := MeasureAll(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MeasureAll(cells, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("case %d: serial row %+v != parallel row %+v", i, serial[i], parallel[i])
		}
	}
	if serial[0].AvgExtentKB <= serial[1].AvgExtentKB {
		t.Logf("note: avg extent did not shrink with fill (%.0f KB vs %.0f KB) — small config",
			serial[0].AvgExtentKB, serial[1].AvgExtentKB)
	}
}

// TestParallelTableMatchesSerial pins the parallel sweep contract at the
// table level: the run×kind matrix measured on many host workers renders
// byte-identically to the serial one.
//
// The adaptive row is the one with state to leak: its policy keeps
// per-file detectors keyed by inode number, and every cell's file is
// the same inode. A policy instance shared between cells would show up
// here as a differing table, and under -race as a data race.
func TestParallelTableMatchesSerial(t *testing.T) {
	prm := Params{FileMB: 1, RandomOps: 16}
	for _, ra := range []string{"", "adaptive"} {
		var cells []Cell
		for _, rc := range []ufsclust.RunConfig{ufsclust.RunA(), ufsclust.RunD()} {
			for _, k := range Kinds() {
				cells = append(cells, Cell{Scenario: ufsclust.Scenario{Run: rc, ReadAhead: ra}, Kind: k, Params: prm})
			}
		}
		var tables [2]string
		for i, workers := range []int{1, 4} {
			rows, err := MeasureAll(cells, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"fig10", "fig11"} {
				tab, err := RenderPaper(name, rows)
				if err != nil {
					t.Fatal(err)
				}
				tables[i] += tab
			}
		}
		if tables[0] != tables[1] {
			t.Fatalf("parallel tables differ from serial\n--- serial ---\n%s--- parallel ---\n%s", tables[0], tables[1])
		}
	}
	traced := []Cell{{Scenario: ufsclust.Scenario{Run: ufsclust.RunA()}, Kind: FSR, Params: Params{FileMB: 1, TraceW: os.Stderr}}}
	if _, err := MeasureAll(traced, 2); err == nil {
		t.Fatal("MeasureAll accepted a TraceW with workers > 1; traces would interleave")
	}
}

// TestNegativeSizesAreAnError: a negative size used to run an empty loop
// and report a table of zeros (or, for FSTR, panic in make), and a file
// the 400 MB drive cannot hold must come back as the setup write's
// error, not as a rate over bytes that were never written. The same goes
// for FSTR records that overlap (a stride below the record size), which
// counted the shared bytes once per element, and for an I/O larger than
// the file, which panicked the random kinds and overstated FSW.
func TestNegativeSizesAreAnError(t *testing.T) {
	for _, c := range []struct {
		name string
		kind Kind
		prm  Params
	}{
		{"FSTR_negative_file", FSTR, Params{FileMB: -1}}, {"FSTR_negative_io", FSTR, Params{IOSize: -8192}},
		{"FSTR_negative_ops", FSTR, Params{RandomOps: -1}}, {"FSTR_negative_record", FSTR, Params{Record: -1}},
		{"FSTR_negative_stride", FSTR, Params{Stride: -1}}, {"FSTR_negative_batch", FSTR, Params{VecBatch: -1}},
		{"FSTR_stride_below_record", FSTR, Params{FileMB: 1, Record: 8192, Stride: 100}},
		{"FSM_negative_file", FSM, Params{FileMB: -1}}, {"FSR_negative_file", FSR, Params{FileMB: -1}},
		{"FSM_full_disk", FSM, Params{FileMB: 450}}, {"FSR_full_disk", FSR, Params{FileMB: 450}},
		{"FRR_io_beyond_file", FRR, Params{FileMB: 1, IOSize: 2 << 20, RandomOps: 4}},
		{"FRU_io_beyond_file", FRU, Params{FileMB: 1, IOSize: 2 << 20, RandomOps: 4}},
		{"FMX_io_beyond_file", FMX, Params{FileMB: 1, IOSize: 2 << 20, RandomOps: 4}},
		{"FSW_io_beyond_file", FSW, Params{FileMB: 1, IOSize: 2 << 20}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if res, err := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, c.kind, c.prm); err == nil {
				t.Errorf("%s %+v: ran and measured %+v", c.kind, c.prm, res)
			}
		})
	}
}
