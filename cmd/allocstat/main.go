// Command allocstat reproduces the paper's allocator-contiguity
// experiment: the average extent size the FFS allocator achieves for a
// large file on an empty file system (best case, paper: 1.5 MB average
// in a 13 MB file) and on a heavily fragmented, mostly-full one (worst
// case, paper: 62 KB average in a 16 MB file). With -layout it prints
// the placement patterns of Figures 4 and 5 instead.
package main

import (
	"flag"
	"fmt"
	"os"

	"ufsclust"
	"ufsclust/internal/alloclab"
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
	parallel := flag.Int("parallel", 0, "host workers for -sweep (0 = GOMAXPROCS)")
	flag.Parse()

	if *layout {
		printLayout()
		return
	}
	if *sweep {
		printSweep(int64(*worstMB)<<20, *churn, *parallel)
		return
	}

	best := measure(func(p *sim.Proc, fs *ufs.Fs) (*alloclab.Report, error) {
		return alloclab.BestCase(p, fs, int64(*bestMB)<<20)
	})
	fmt.Printf("best case (empty fs):        %s\n", best)
	fmt.Println("  paper: average extent 1.5MB in a 13MB file")

	worst := measure(func(p *sim.Proc, fs *ufs.Fs) (*alloclab.Report, error) {
		return alloclab.WorstCase(p, fs, int64(*worstMB)<<20,
			alloclab.AgeOpts{TargetFull: *full, Churn: *churn})
	})
	fmt.Printf("worst case (aged, %.0f%% full): %s\n", *full*100, worst)
	fmt.Println("  paper: average extent 62KB in a 16MB file")
}

func measure(fn func(p *sim.Proc, fs *ufs.Fs) (*alloclab.Report, error)) *alloclab.Report {
	m, err := ufsclust.New(ufsclust.RunA())
	if err != nil {
		fatal(err)
	}
	defer m.Close()
	var rep *alloclab.Report
	err = m.Run(func(p *sim.Proc) {
		var ferr error
		rep, ferr = fn(p, m.FS)
		if ferr != nil {
			fatal(ferr)
		}
	})
	if err != nil {
		fatal(err)
	}
	return rep
}

// printSweep runs the aging sweep: worst-case contiguity as a function
// of how full the aged file system is, each point an independent
// machine, in parallel across host workers.
func printSweep(fileBytes int64, churn, workers int) {
	fills := []float64{0.5, 0.6, 0.7, 0.8, 0.85, 0.9}
	points := make([]alloclab.SweepPoint, len(fills))
	for i, f := range fills {
		points[i] = alloclab.SweepPoint{
			FileBytes: fileBytes,
			Age:       alloclab.AgeOpts{TargetFull: f, Churn: churn},
		}
	}
	results, err := alloclab.SweepWorstCase(ufsclust.RunA(), points, workers)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("worst-case contiguity vs fill fraction (%dMB file, churn %d)\n", fileBytes>>20, churn)
	fmt.Printf("%8s %12s %12s %8s\n", "full", "avg extent", "max extent", "extents")
	for _, r := range results {
		fmt.Printf("%7.0f%% %11dK %11dK %8d\n",
			r.Point.Age.TargetFull*100,
			r.Report.AvgExtent()>>10, r.Report.MaxExtent()>>10, len(r.Report.Extents))
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
