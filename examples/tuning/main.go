// Tuning: the paper's "Possible Improvements" section as a live
// experiment. It measures the ablation cells of BENCH_iobench.json
// afresh — the rotdelay tuning of the legacy block-at-a-time engine
// (with the track-buffer drive), driver clustering, read-ahead, the
// write limit and the Further Work ideas — and prints them through the
// renderer EXPERIMENTS.md's tables come from, showing why "file system
// tuning" alone was rejected: rotdelay 0 helps reads but makes writes
// "suffer horribly", any non-zero rotdelay caps sequential I/O near
// half the disk, and only clustering gets both.
package main

import (
	"fmt"
	"log"

	"ufsclust/internal/iobench"
)

func main() {
	rows, err := iobench.MeasureAll(iobench.Ablations(), 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range []string{"ablations", "furtherwork"} {
		tab, err := iobench.RenderPaper(name, rows)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tab)
	}
}
