package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"ufsclust/internal/iobench"
)

var updateTables = flag.Bool("update-tables", false, "rewrite EXPERIMENTS.md's paper tables from the committed BENCH_iobench.json")

// TestMatrixMatchesCommitted regenerates the whole matrix report in
// memory and requires byte equality with the committed
// BENCH_iobench.json. Every number in it is virtual — a pure function
// of the code — so any difference is a behaviour change: either explain
// it and refresh the file (`make bench`, or `go run ./cmd/iobench
// -matrix BENCH_iobench.json`), or fix it.
func TestMatrixMatchesCommitted(t *testing.T) {
	got, err := matrixJSON(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_iobench.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the regenerated matrix differs from BENCH_iobench.json; rewrite it with -matrix and read the git diff")
	}
}

// committedRows reads the committed report; the tests below simulate
// nothing, TestMatrixMatchesCommitted ties the file to the code.
func committedRows(t *testing.T) map[string][]iobench.Row {
	t.Helper()
	buf, err := os.ReadFile("../../BENCH_iobench.json")
	if err != nil {
		t.Fatal(err)
	}
	var report map[string][]iobench.Row
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatal(err)
	}
	return report
}

// TestPaperTablesMatchCommitted renders every generated table from its
// committed section and requires EXPERIMENTS.md's <!-- paper:NAME -->
// block to equal it, so a hand edit of a block and a cell that moved
// without its table both fail here. With -update-tables it rewrites the
// blocks instead (`make bench` does).
func TestPaperTablesMatchCommitted(t *testing.T) {
	report := committedRows(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	want := string(doc)
	for _, tab := range iobench.PaperTables {
		name := tab.Name
		begin, end := "<!-- paper:"+name+" -->\n", "<!-- /paper:"+name+" -->"
		i, j := strings.Index(want, begin), strings.Index(want, end)
		if strings.Count(want, begin) != 1 || strings.Count(want, end) != 1 || j < i {
			t.Fatalf("EXPERIMENTS.md needs exactly one %q … %q block", begin, end)
		}
		tab, err := iobench.RenderPaper(name, report[tab.Section])
		if err != nil {
			t.Fatal(err)
		}
		want = want[:i+len(begin)] + tab + want[j:]
	}
	if *updateTables {
		if err := os.WriteFile("../../EXPERIMENTS.md", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want != string(doc) {
		t.Fatal("EXPERIMENTS.md's generated tables differ from BENCH_iobench.json; rewrite them with `go test ./cmd/iobench -run TestPaperTablesMatchCommitted -update-tables` and read the git diff")
	}
}

// TestPaperShapes holds the committed paper cells to the shapes the
// paper reports — who wins, and by roughly what factor — in bands wide
// enough for the deviations EXPERIMENTS.md explains.
func TestPaperShapes(t *testing.T) {
	rows := committedRows(t)["paper"]
	cell := func(t *testing.T, run string, kind iobench.Kind) iobench.Row {
		t.Helper()
		for _, r := range rows {
			if r.Run == run && r.Kind == kind {
				return r
			}
		}
		t.Fatalf("no paper cell for run %s %s", run, kind)
		return iobench.Row{}
	}
	aOverD := func(t *testing.T, kind iobench.Kind) float64 {
		return cell(t, "A", kind).RateKBs / cell(t, "D", kind).RateKBs
	}
	cpu := func(r iobench.Row) float64 { return float64(r.Counters["cpu.system_ns"]) / 1e9 }

	t.Run("SequentialClusteringWins", func(t *testing.T) {
		// "Predictably, the sequential I/O rates improved about a factor
		// of two."
		for _, k := range []iobench.Kind{iobench.FSR, iobench.FSU, iobench.FSW} {
			if r := aOverD(t, k); r < 1.4 || r > 2.6 {
				t.Errorf("%s A/D = %.2f, want ~1.7-2.2", k, r)
			}
		}
	})
	t.Run("RandomReadsUnaffected", func(t *testing.T) {
		// Figure 11: clustering neither helps nor hurts random reads.
		if r := aOverD(t, iobench.FRR); r < 0.85 || r > 1.25 {
			t.Errorf("FRR A/D = %.2f, want ~1.0", r)
		}
	})
	t.Run("RandomUpdateFairnessCost", func(t *testing.T) {
		// Figure 11's one sub-1.0 cell, FRU A/D = 0.83: the write limit
		// trades random-update throughput for fairness. The direction
		// reproduces, the magnitude is weak.
		if r := aOverD(t, iobench.FRU); r > 1.05 {
			t.Errorf("FRU A/D = %.2f, want <= ~1.0", r)
		}
	})
	t.Run("AbsoluteRatesPlausible", func(t *testing.T) {
		// The media rate is ~1.9 MB/s: run A's sequential read lands
		// between 1.0 and 1.92 MB/s and the legacy runs near half of it.
		if r := cell(t, "A", iobench.FSR).RateKBs; r < 1100 || r > 1966 {
			t.Errorf("A FSR = %.0f KB/s, outside [1100, 1966]", r)
		}
		if r := cell(t, "D", iobench.FSR).RateKBs; r < 600 || r > 1050 {
			t.Errorf("D FSR = %.0f KB/s, outside [600, 1050]", r)
		}
	})
	t.Run("WriteLimitStallsOnlyLimitedRuns", func(t *testing.T) {
		// Runs A-C carry the 240 KB write limit, run D none.
		for _, run := range []string{"A", "B", "C", "D"} {
			stalls := cell(t, run, iobench.FSW).Counters["core.write_stalls"]
			if limited := run != "D"; limited != (stalls > 0) {
				t.Errorf("run %s FSW: %d write stalls", run, stalls)
			}
		}
	})
	t.Run("ClusteredReadUsesLessCPUPerByte", func(t *testing.T) {
		// Same bytes moved; the clustered engine must charge less CPU.
		if a, d := cpu(cell(t, "A", iobench.FSR)), cpu(cell(t, "D", iobench.FSR)); a >= d {
			t.Errorf("FSR CPU: clustered %.2f s >= legacy %.2f s", a, d)
		}
	})
	t.Run("IntroHalfCPUHalfBandwidth", func(t *testing.T) {
		// "About half of a 12MIPS CPU was used to get half of the disk
		// bandwidth of a 1.5MB/second disk."
		d := cell(t, "D", iobench.FSR)
		share := cpu(d) / (float64(d.FileMB) * 1024 / d.RateKBs)
		if d.RateKBs < 600 || d.RateKBs > 1000 {
			t.Errorf("legacy rate = %.0f KB/s, want ~750", d.RateKBs)
		}
		if share < 0.25 || share > 0.75 {
			t.Errorf("legacy CPU share = %.2f, want ~0.5", share)
		}
	})
	t.Run("Figure12Shape", func(t *testing.T) {
		// 2.6 s against 3.4 s: the clustering UFS uses ~25 % less CPU,
		// and each absolute is within ~2x of the paper's.
		a, d := cpu(cell(t, "A", iobench.FSM)), cpu(cell(t, "D", iobench.FSM))
		if r := a / d; r < 0.5 || r >= 0.95 {
			t.Errorf("mmap read CPU new/old = %.2f, want in [0.5, 0.95) (paper 0.76)", r)
		}
		if a < 1.3 || a > 5.2 || d < 1.7 || d > 6.8 {
			t.Errorf("mmap read CPU new %.2f s, old %.2f s; want ~2.6 s and ~3.4 s", a, d)
		}
	})
	t.Run("ReportHasBreakdown", func(t *testing.T) {
		// The mmap read faults and getpages its way through the file and
		// copies nothing.
		for _, run := range []string{"A", "D"} {
			c := cell(t, run, iobench.FSM).Counters
			if c["cpu.fault.ns"] <= 0 || c["cpu.getpage.ns"] <= 0 || c["cpu.copy.ns"] != 0 {
				t.Errorf("run %s FSM CPU breakdown %v: want fault and getpage time and no copy", run, c)
			}
		}
	})
	t.Run("AllocatorExtents", func(t *testing.T) {
		// Best case megabyte-scale extents; worst case far smaller but
		// still many blocks long (the paper: 1.5 MB and 62 KB).
		var best, worst float64
		for _, r := range rows {
			switch {
			case r.Extents > 0 && r.Full == 0:
				best = r.AvgExtentKB
			case r.Extents > 0:
				worst = r.AvgExtentKB
			}
		}
		if best < 512 || worst < 16 || worst > 1024 || worst >= best {
			t.Errorf("average extents: best %.1f KB, worst %.1f KB", best, worst)
		}
	})
	t.Run("TimeSharingImprovesOnlySlightly", func(t *testing.T) {
		// MusBus moves no substantial data, so every run completes about
		// the same work.
		lo, hi := int64(0), int64(0)
		n := 0
		for _, r := range rows {
			if r.Users == 0 {
				continue
			}
			if n == 0 || r.Iterations < lo {
				lo = r.Iterations
			}
			if r.Iterations > hi {
				hi = r.Iterations
			}
			n++
		}
		if n != 4 || float64(hi) > 1.05*float64(lo) {
			t.Errorf("%d MusBus runs, iterations %d..%d: want runs A-D within 5 %%", n, lo, hi)
		}
	})
}

// TestAblationShapes holds the committed ablation cells to the claims
// EXPERIMENTS.md restates from them, in bands wide enough for the
// simulator's deviations from the paper.
func TestAblationShapes(t *testing.T) {
	rows := committedRows(t)["ablations"]
	get := func(run, variant string, kind iobench.Kind, fileMB int, ra string) iobench.Row {
		for _, r := range rows {
			if r.Run == run && r.Variant == variant && r.Kind == kind && r.FileMB == fileMB && r.ReadAhead == ra {
				return r
			}
		}
		t.Fatalf("no ablation cell for run %s %q %s %d MB", run, variant, kind, fileMB)
		return iobench.Row{}
	}
	rate := func(run, variant string, kind iobench.Kind) float64 { return get(run, variant, kind, 4, "").RateKBs }
	fru := func(variant string) float64 { return get("A", variant, iobench.FRU, 8, "").RateKBs }
	// fw returns counter name of run A's cell without and with the variant.
	fw := func(variant string, kind iobench.Kind, fileMB int, name string) (off, on int64) {
		return get("A", "", kind, fileMB, "").Counters[name], get("A", variant, kind, fileMB, "").Counters[name]
	}
	d, tuned, fsr, fsw, frr := "legacy 4 ms", "legacy 0 ms", iobench.FSR, iobench.FSW, iobench.FRR
	halved := func(off, on int64) bool { return 2*on < off }
	lower := func(off, on int64) bool { return on < off }
	engaged := func(off, on int64) bool { return off == 0 && on > 0 }
	same := func(off, on int64) bool { return off == on }
	for _, c := range []struct {
		name  string
		holds bool
	}{
		{"RotdelayCapsSequentialIO", max(rate("legacy 8 ms", "", fsr), rate(d, "", fsr), rate("legacy 2 ms", "", fsr)) < 1000},
		{"TuningGainsReadsHalvesWrites", rate(tuned, "", fsr) > rate(d, "", fsr) && rate(tuned, "", fsw) < 0.6*rate(d, "", fsw)},
		{"OnlyClusteringGetsBoth", rate("A", "", fsr) > 1.4*rate(tuned, "", fsr) && rate("A", "", fsw) > 1.4*rate(d, "", fsw)},
		// A synchronous reader never queues two adjacent requests.
		{"DriverClusteringHelpsWritesNotReads", rate(tuned, "coalesce", fsr) == rate(tuned, "", fsr) &&
			get(tuned, "coalesce", fsr, 4, "").Counters["driver.coalesced"] == 0 && rate(tuned, "coalesce", fsw) > 2*rate(tuned, "", fsw)},
		{"RotdelayGapNeedsReadAhead", get(d, "", fsr, 4, "off").RateKBs < 0.7*rate(d, "", fsr)},
		{"WriteLimitKeepsMostOfTheRate", fru("") > 0.95*fru("no write limit") && fru("write limit 8 KB") < fru("")},
		// A hit answers what a fresh bmap would, so the clustered
		// engine issues the same I/O at no lower a rate.
		{"BmapCacheSpeedsLargeFileReads", engaged(fw("bmap cache", fsr, 4, "fs.bmap_cache_hits")) &&
			halved(fw("bmap cache", fsr, 4, "fs.bmap_calls")) && lower(fw("bmap cache", fsr, 4, "cpu.system_ns")) &&
			same(fw("bmap cache", fsr, 4, "core.sync_reads")) && same(fw("bmap cache", fsr, 4, "driver.issued")) &&
			rate("A", "bmap cache", fsr) >= rate("A", "", fsr)},
		{"SkipBmapOnHitSavesCPU", halved(fw("bmap cache", frr, 2, "fs.bmap_calls")) && lower(fw("bmap cache", frr, 2, "cpu.system_ns")) &&
			get("A", "bmap cache", frr, 2, "").RateKBs >= get("A", "", frr, 2, "").RateKBs},
		{"RandomClusteringHint", engaged(fw("random clustering", frr, 8, "core.hint_clusters")) &&
			lower(fw("random clustering", frr, 8, "driver.issued"))},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !c.holds {
				t.Error("the committed ablation cells no longer show it")
			}
		})
	}
}

// TestAdaptiveBeatsFixedOnMixed is the acceptance test for the adaptive
// read-ahead window, on the committed ramatrix cells (run A, a 2 MB
// file in 1 MB of memory): adaptive holds fixed's sequential rate within
// 2 % (the ramp-up is the only cost it may pay), beats both fixed and
// off on the mixed cell (fixed's exact-match cursor goes dead after a
// random burst, off never prefetches), and on pure random reads wastes
// strictly fewer prefetched blocks than fixed, whose trigger fires on
// accidental matches.
func TestAdaptiveBeatsFixedOnMixed(t *testing.T) {
	ra := map[string]iobench.Row{}
	for _, r := range committedRows(t)["ramatrix"] {
		ra[string(r.Kind)+" "+r.ReadAhead] = r
	}
	rate := func(cell string) float64 { return ra[cell].RateKBs }
	waste := func(cell string) int64 { return ra[cell].Counters["vm.ra_waste"] }
	if rate("FSR adaptive") < 0.98*rate("FSR fixed") || rate("FMX adaptive") <= max(rate("FMX fixed"), rate("FMX off")) ||
		waste("FRR fixed") == 0 || waste("FRR adaptive") >= waste("FRR fixed") {
		t.Errorf("FSR KB/s fixed %.0f, adaptive %.0f; FMX KB/s fixed %.0f, adaptive %.0f, off %.0f; FRR wasted blocks fixed %d, adaptive %d",
			rate("FSR fixed"), rate("FSR adaptive"), rate("FMX fixed"), rate("FMX adaptive"), rate("FMX off"), waste("FRR fixed"), waste("FRR adaptive"))
	}
}
