// Command iobench reproduces the paper's Figures 9, 10, and 11: the
// IObench run configurations, transfer rates in KB/second, and the
// rate ratios relative to run A.
//
// Usage:
//
//	iobench [-file MB] [-ops N] [-runs A,B,C,D] [-list] [-ratios] [-parallel N]
//	        [-seed N] [-mem MB] [-ra policy] [-vec strategy] [-journal mode]
//	        [-vol LEVEL] [-members N] [-stripe KB] [-degraded I,J]
//	iobench -matrix BENCH_iobench.json
//
// The tables print through iobench.RenderPaper, the formatter
// EXPERIMENTS.md's generated Figure 10 and 11 tables come from, the
// paper's rows beside the measured ones.
//
// -parallel runs the (run, kind) matrix on N host workers (0 means
// GOMAXPROCS). Every cell is an independent deterministic simulation,
// so the output is byte-identical to the serial run.
//
// -matrix skips the figures and instead writes the comparison report
// to the named JSON file: six sections (ramatrix, volmatrix, vecmatrix,
// jmatrix, iosize, paper) of cells in one schema, from one table — see
// matrix.go for what each section varies and why.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ufsclust"
	"ufsclust/internal/iobench"
)

func main() {
	var sc ufsclust.Scenario
	sc.RegisterFlags(flag.CommandLine)
	fileMB := flag.Int("file", 16, "benchmark file size in MB")
	ops := flag.Int("ops", 0, "random-phase operations (default file/8KB)")
	runsFlag := flag.String("runs", "A,B,C,D", "comma-separated run configurations")
	matrix := flag.String("matrix", "", "write the comparison matrix report to this JSON file and exit")
	list := flag.Bool("list", false, "print Figure 9 (run descriptions) and exit")
	ratiosOnly := flag.Bool("ratios", false, "print only Figure 11 (ratios)")
	parallel := flag.Int("parallel", 1, "host workers for the run×kind matrix (0 = GOMAXPROCS)")
	flag.Parse()

	if *matrix != "" {
		buf, err := matrixJSON(*parallel)
		if err == nil {
			err = os.WriteFile(*matrix, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("iobench: wrote %s\n", *matrix)
		return
	}

	var runs []ufsclust.RunConfig
	for _, name := range strings.Split(*runsFlag, ",") {
		rc, err := ufsclust.RunByName(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
			os.Exit(2)
		}
		runs = append(runs, rc)
	}

	if *list {
		fmt.Println("Figure 9: IObench run descriptions")
		fmt.Printf("%-4s %8s %9s %8s %11s %11s\n", "", "cluster", "rotdelay", "UFS", "free-behind", "write-limit")
		for _, rc := range runs {
			fmt.Printf("%-4s %7dK %7dms %8s %11v %11v\n",
				rc.Name, rc.ClusterKB, rc.RotdelayMs, rc.UFSVersion, rc.FreeBehind, rc.WriteLimit)
		}
		return
	}

	_, err := sc.Options()
	if err == nil && (*fileMB < 0 || *ops < 0) {
		err = fmt.Errorf("-file %d -ops %d: sizes must not be negative", *fileMB, *ops)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
		os.Exit(2)
	}
	var cells []iobench.Cell
	for _, sc.Run = range runs {
		for _, kind := range iobench.Kinds() {
			cells = append(cells, iobench.Cell{Scenario: sc, Kind: kind, Params: iobench.Params{FileMB: *fileMB, RandomOps: *ops}})
		}
	}
	rows, err := iobench.MeasureAll(cells, *parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
		os.Exit(1)
	}
	if !*ratiosOnly {
		printTable("Figure 10: IObench transfer rates in KB/second", "fig10", rows)
	}
	if len(runs) > 1 {
		printTable("Figure 11: IObench transfer rate ratios", "fig11", rows)
	}
}

func printTable(title, name string, rows []iobench.Row) {
	tab, err := iobench.RenderPaper(name, rows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n\n%s\n", title, tab)
}
