// Command musbus runs the time-sharing workload under each paper
// configuration, reproducing the negative result: "the time-sharing
// benchmarks improved only slightly" because interactive work moves at
// most one block per transfer. The table prints through
// iobench.RenderPaper, the formatter of EXPERIMENTS.md's generated
// MusBus table.
//
//	musbus [-users N] [-minutes N]
//	       [-seed N] [-mem MB] [-ra policy] [-vec strategy] [-journal mode]
//	       [-vol LEVEL] [-members N] [-stripe KB] [-degraded I,J]
//
// The last two lines are the machine-shape flags every command shares
// (ufsclust.Scenario.RegisterFlags).
package main

import (
	"flag"
	"fmt"
	"os"

	"ufsclust"
	"ufsclust/internal/iobench"
	"ufsclust/internal/musbus"
	"ufsclust/internal/sim"
)

func main() {
	var sc ufsclust.Scenario
	sc.RegisterFlags(flag.CommandLine)
	users := flag.Int("users", 8, "concurrent simulated users")
	minutes := flag.Int("minutes", 5, "virtual minutes to run")
	flag.Parse()
	if _, err := sc.Options(); err != nil {
		fmt.Fprintf(os.Stderr, "musbus: %v\n", err)
		os.Exit(2)
	}

	prm := musbus.Params{Users: *users, Duration: sim.Time(*minutes) * 60 * sim.Second}
	var cells []iobench.Cell
	for _, sc.Run = range ufsclust.Runs() {
		cells = append(cells, iobench.Cell{Scenario: sc, MusBus: &prm, Counters: []string{"cpu.system_ns"}})
	}
	rows, err := iobench.MeasureAll(cells, 0)
	var tab string
	if err == nil {
		tab, err = iobench.RenderPaper("musbus", rows)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "musbus: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("MusBus-like time-sharing mix\n\n%s", tab)
}
