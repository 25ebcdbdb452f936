// Command allocstat reproduces the paper's allocator-contiguity
// experiment: the average extent size the FFS allocator achieves for a
// large file on an empty file system (best case, paper: 1.5 MB average
// in a 13 MB file) and on a heavily fragmented, mostly-full one (worst
// case, paper: 62 KB average in a 16 MB file), printed through
// iobench.RenderPaper, the formatter of EXPERIMENTS.md's generated
// allocator table. With -sweep it varies the aged file system's
// fullness instead, and with -layout it prints the placement patterns
// of Figures 4 and 5.
package main

import (
	"flag"
	"fmt"
	"os"

	"ufsclust"
	"ufsclust/internal/alloclab"
	"ufsclust/internal/iobench"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

func main() {
	bestMB := flag.Int("best", 13, "best-case file size in MB")
	worstMB := flag.Int("worst", 16, "worst-case file size in MB")
	full := flag.Float64("full", 0.85, "fragmented-fill target fraction")
	churn := flag.Int("churn", 3, "delete/refill churn cycles")
	layout := flag.Bool("layout", false, "print Figures 4/5 block placement instead")
	sweep := flag.Bool("sweep", false, "sweep worst-case contiguity across fill fractions instead")
	parallel := flag.Int("parallel", 0, "host workers (0 = GOMAXPROCS)")
	flag.Parse()

	// Refuse bad values before any machine boots: the sweep and the
	// two-row table would otherwise measure for a while and then fail.
	err := alloclab.AgeOpts{TargetFull: *full, Churn: *churn}.Check()
	if err == nil && (*bestMB <= 0 || *worstMB <= 0) {
		err = fmt.Errorf("-best %d -worst %d: file sizes must be positive", *bestMB, *worstMB)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "allocstat: %v\n", err)
		os.Exit(2)
	}

	if *layout {
		printLayout()
		return
	}
	if *sweep {
		printSweep(int64(*worstMB)<<20, *churn, *parallel)
		return
	}

	sc := ufsclust.Scenario{Run: ufsclust.RunA()}
	rows, err := iobench.MeasureAll([]iobench.Cell{
		{Scenario: sc, Alloc: &alloclab.Case{FileBytes: int64(*bestMB) << 20}},
		{Scenario: sc, Alloc: &alloclab.Case{FileBytes: int64(*worstMB) << 20, Age: alloclab.AgeOpts{TargetFull: *full, Churn: *churn}}},
	}, *parallel)
	if err != nil {
		fatal(err)
	}
	tab, err := iobench.RenderPaper("alloc", rows)
	if err != nil {
		fatal(err)
	}
	fmt.Print(tab)
}

// printSweep runs the aging sweep: worst-case contiguity as a function
// of how full the aged file system is, each point an independent
// machine, in parallel across host workers. It stops at 85 %: 90 % is
// the minfree ceiling, where the aged file system has no room left for
// the file.
func printSweep(fileBytes int64, churn, workers int) {
	fills := []float64{0.5, 0.6, 0.7, 0.8, 0.85}
	cells := make([]iobench.Cell, len(fills))
	for i, f := range fills {
		cells[i] = iobench.Cell{Scenario: ufsclust.Scenario{Run: ufsclust.RunA()},
			Alloc: &alloclab.Case{FileBytes: fileBytes, Age: alloclab.AgeOpts{TargetFull: f, Churn: churn}}}
	}
	rows, err := iobench.MeasureAll(cells, workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("worst-case contiguity vs fill fraction (%dMB file, churn %d)\n", fileBytes>>20, churn)
	fmt.Printf("%8s %12s %12s %8s\n", "full", "avg extent", "max extent", "extents")
	for _, r := range rows {
		fmt.Printf("%7.0f%% %11dK %11dK %8d\n", r.Full*100, int64(r.AvgExtentKB), int64(r.MaxExtentKB), r.Extents)
	}
	fmt.Println("  paper: average extent 62KB in a 16MB file on the aged /home partition")
}

// printLayout shows where the allocator places the first blocks of a
// file under rotdelay=4ms (Figure 4, interleaved) and rotdelay=0
// (Figure 5, contiguous).
func printLayout() {
	for _, cfg := range []struct {
		name     string
		rotdelay int
	}{
		{"Figure 4: interleaved blocks (rotdelay 4ms)", 4},
		{"Figure 5: non-interleaved blocks (rotdelay 0)", 0},
	} {
		m, err := ufsclust.NewMachine(ufsclust.Options{
			Mkfs: ufs.MkfsOpts{Rotdelay: cfg.rotdelay, Maxcontig: 7},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Println(cfg.name)
		err = m.Run(func(p *sim.Proc) {
			ip, err := m.FS.Create(p, "/layout")
			if err != nil {
				fatal(err)
			}
			var addrs []int32
			for lbn := int64(0); lbn < 8; lbn++ {
				fsbn, err := m.FS.BmapAlloc(p, ip, lbn, int(m.FS.SB.Bsize))
				if err != nil {
					fatal(err)
				}
				ip.D.Size = (lbn + 1) * int64(m.FS.SB.Bsize)
				addrs = append(addrs, fsbn)
			}
			base := addrs[0]
			fmt.Print("  track positions: ")
			for lbn, a := range addrs {
				fmt.Printf("%d@%d ", lbn, (a-base)/m.FS.SB.Frag)
			}
			fmt.Println()
		})
		m.Close()
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "allocstat: %v\n", err)
	os.Exit(1)
}
