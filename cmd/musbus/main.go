// Command musbus runs the time-sharing workload under each paper
// configuration, reproducing the negative result: "the time-sharing
// benchmarks improved only slightly" because interactive work moves at
// most one block per transfer.
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
	users := flag.Int("users", 8, "concurrent simulated users")
	minutes := flag.Int("minutes", 5, "virtual minutes to run")
	flag.Parse()

	prm := musbus.Params{Users: *users, Duration: sim.Time(*minutes) * 60 * sim.Second}
	fmt.Printf("MusBus-like time-sharing mix: %d users, %d virtual minutes\n", *users, *minutes)
	fmt.Printf("%-4s %12s %10s\n", "run", "iter/minute", "cpu")
	for _, rc := range ufsclust.Runs() {
		res, err := musbus.Run(rc, prm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "musbus: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-4s %12.1f %10v\n", res.Run, res.Throughput(), res.CPUTime)
	}
	fmt.Println("(paper: \"the time-sharing benchmarks improved only slightly\")")
}
