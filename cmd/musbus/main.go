// Command musbus runs the time-sharing workload under each paper
// configuration, reproducing the negative result: "the time-sharing
// benchmarks improved only slightly" because interactive work moves at
// most one block per transfer.
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
	fmt.Printf("MusBus-like time-sharing mix: %d users, %d virtual minutes\n", *users, *minutes)
	fmt.Printf("%-4s %12s %10s\n", "run", "iter/minute", "cpu")
	for _, sc.Run = range ufsclust.Runs() {
		res, err := musbus.Run(sc, prm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "musbus: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-4s %12.1f %10v\n", res.Run, res.Throughput(), res.CPUTime)
	}
	fmt.Println("(paper: \"the time-sharing benchmarks improved only slightly\")")
}
