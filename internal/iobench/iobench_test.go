package iobench

import (
	"os"
	"strings"
	"testing"

	"ufsclust"
)

// smallParams keeps unit tests quick; the full 16 MB paper configuration
// runs in the benchmark harness (bench_test.go, cmd/iobench).
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

func TestSequentialClusteringWins(t *testing.T) {
	// The paper's headline: "Predictably, the sequential I/O rates
	// improved about a factor of two."
	prm := smallParams()
	for _, kind := range []Kind{FSR, FSU, FSW} {
		a, err := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, kind, prm)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Run(ufsclust.Scenario{Run: ufsclust.RunD()}, kind, prm)
		if err != nil {
			t.Fatal(err)
		}
		ratio := a.RateKBs() / d.RateKBs()
		if ratio < 1.4 || ratio > 2.6 {
			t.Errorf("%s A/D = %.2f, want ~1.7-2.2 (A=%.0f D=%.0f KB/s)",
				kind, ratio, a.RateKBs(), d.RateKBs())
		}
	}
}

func TestRandomReadsUnaffected(t *testing.T) {
	// Figure 11: FRR ratios are ~1.04-1.05 — clustering neither helps
	// nor hurts random reads.
	prm := smallParams()
	a, err := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, FRR, prm)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(ufsclust.Scenario{Run: ufsclust.RunD()}, FRR, prm)
	if err != nil {
		t.Fatal(err)
	}
	ratio := a.RateKBs() / d.RateKBs()
	if ratio < 0.85 || ratio > 1.25 {
		t.Errorf("FRR A/D = %.2f, want ~1.0", ratio)
	}
}

func TestRandomUpdateFairnessCost(t *testing.T) {
	// Figure 11's one sub-1.0 cell: FRU A/D = 0.83 — the write limit
	// trades random-update throughput for fairness. We reproduce the
	// direction (A <= D within noise), though our seek model recovers
	// less of disksort's deep-queue advantage than the 1991 hardware.
	prm := smallParams()
	prm.RandomOps = 512
	a, err := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, FRU, prm)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(ufsclust.Scenario{Run: ufsclust.RunD()}, FRU, prm)
	if err != nil {
		t.Fatal(err)
	}
	ratio := a.RateKBs() / d.RateKBs()
	if ratio > 1.05 {
		t.Errorf("FRU A/D = %.2f, want <= ~1.0 (the fairness tradeoff)", ratio)
	}
}

func TestAbsoluteRatesPlausible(t *testing.T) {
	// Sanity-band the absolute KB/s against the hardware model:
	// media rate is ~1.9 MB/s, so run A sequential must land between
	// 1.0 and 1.92 MB/s and legacy runs near half of it.
	prm := smallParams()
	a, _ := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, FSR, prm)
	if r := a.RateKBs(); r < 1100 || r > 1966 {
		t.Errorf("A FSR = %.0f KB/s, outside [1100, 1966]", r)
	}
	d, _ := Run(ufsclust.Scenario{Run: ufsclust.RunD()}, FSR, prm)
	if r := d.RateKBs(); r < 600 || r > 1050 {
		t.Errorf("D FSR = %.0f KB/s, outside [600, 1050]", r)
	}
}

func TestWriteLimitStallsOnlyLimitedRuns(t *testing.T) {
	prm := smallParams()
	// Run A has the 240KB limit; stalls expected on sequential write.
	resA, err := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, FSW, prm)
	if err != nil {
		t.Fatal(err)
	}
	_ = resA
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Cells: map[string]map[Kind]Result{
			"A": {FSR: {Run: "A", Kind: FSR, Bytes: 1 << 20, Elapsed: 1e9}},
			"D": {FSR: {Run: "D", Kind: FSR, Bytes: 1 << 20, Elapsed: 2e9}},
		},
		Order: []string{"A", "D"},
	}
	rates := tab.FormatRates([]Kind{FSR})
	if !strings.Contains(rates, "1024") || !strings.Contains(rates, "512") {
		t.Errorf("rates table wrong:\n%s", rates)
	}
	ratios := tab.FormatRatios([]Kind{FSR})
	if !strings.Contains(ratios, "2.00") {
		t.Errorf("ratios table wrong:\n%s", ratios)
	}
	if tab.Ratio("A", "D", FSR) != 2.0 {
		t.Errorf("Ratio = %v", tab.Ratio("A", "D", FSR))
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

// TestParallelTableMatchesSerial pins the parallel sweep contract at the
// table level: the run×kind matrix computed on many host workers renders
// byte-identically to the serial one.
//
// The adaptive row is the one with state to leak: its policy keeps
// per-file detectors keyed by inode number, and every cell's file is
// the same inode. A policy instance shared between cells would show up
// here as a differing table, and under -race as a data race.
func TestParallelTableMatchesSerial(t *testing.T) {
	runs := []ufsclust.RunConfig{ufsclust.RunA(), ufsclust.RunD()}
	prm := Params{FileMB: 1, RandomOps: 16}
	for _, sc := range []ufsclust.Scenario{{}, {ReadAhead: "adaptive"}} {
		serial, err := RunAll(sc, runs, Kinds(), prm)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunAllParallel(sc, runs, Kinds(), prm, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s, p := serial.FormatRates(Kinds()), par.FormatRates(Kinds()); s != p {
			t.Fatalf("parallel table differs from serial\n--- serial ---\n%s--- parallel ---\n%s", s, p)
		}
		if s, p := serial.FormatRatios(Kinds()), par.FormatRatios(Kinds()); s != p {
			t.Fatalf("parallel ratios differ from serial\n--- serial ---\n%s--- parallel ---\n%s", s, p)
		}
	}
	if _, err := RunAllParallel(ufsclust.Scenario{}, runs, Kinds(), Params{FileMB: 1, RandomOps: 16, TraceW: os.Stderr}, 2); err == nil {
		t.Fatal("RunAllParallel accepted a TraceW with workers > 1; traces would interleave")
	}
}

// TestNegativeSizesAreAnError: a negative size used to run an empty loop
// and report a table of zeros (or, for FSTR, panic in make).
func TestNegativeSizesAreAnError(t *testing.T) {
	for _, prm := range []Params{{FileMB: -1}, {IOSize: -8192}, {RandomOps: -1}, {Record: -1}, {Stride: -1}, {VecBatch: -1}} {
		if res, err := Run(ufsclust.Scenario{Run: ufsclust.RunA()}, FSTR, prm); err == nil {
			t.Errorf("%+v: ran and measured %+v", prm, res)
		}
	}
}
