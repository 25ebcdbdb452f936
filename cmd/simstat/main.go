// Command simstat runs one IObench cell and dumps the full telemetry of
// the measured phase: every registered counter, the disk latency and
// driver queue-depth histograms, and (with -jsonl) the structured event
// stream as JSON lines — the paper's figures are averages; this is the
// distribution view behind them.
//
// Usage:
//
//	simstat [-run A] [-kind FSR] [-record B] [-stride B] [-file MB] [-ops N] [-jsonl file]
//	        [-seed N] [-mem MB] [-ra policy] [-vec strategy] [-journal mode]
//	        [-vol LEVEL] [-members N] [-stripe KB] [-degraded I,J]
//
// The second and third lines are the machine-shape flags every command
// shares (ufsclust.Scenario.RegisterFlags).
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
	runName := flag.String("run", "A", "run configuration (A, B, C, D)")
	kindFlag := flag.String("kind", "FSR", "I/O type (FSR, FSU, FSW, FRR, FRU, FMX, FSTR, FSM)")
	record := flag.Int("record", 0, "FSTR record size in bytes (default the I/O size)")
	stride := flag.Int("stride", 0, "FSTR stride in bytes (default 4x record)")
	fileMB := flag.Int("file", 16, "benchmark file size in MB")
	ops := flag.Int("ops", 0, "random-phase operations (default file/8KB)")
	jsonl := flag.String("jsonl", "", "write the measured phase's event stream to this file as JSON lines (- for stdout)")
	flag.Parse()

	var err error
	if sc.Run, err = ufsclust.RunByName(*runName); err == nil {
		_, err = sc.Options()
	}
	if err == nil && *fileMB <= 0 {
		// The report names the file size, so it must be the one measured.
		err = fmt.Errorf("-file %d: the file size must be positive", *fileMB)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simstat: %v\n", err)
		os.Exit(2)
	}
	kind := iobench.Kind(strings.ToUpper(*kindFlag))
	ok := false
	for _, k := range iobench.AllKinds() {
		if k == kind {
			ok = true
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "simstat: unknown kind %q\n", *kindFlag)
		os.Exit(2)
	}

	prm := iobench.Params{FileMB: *fileMB, RandomOps: *ops, Record: *record, Stride: *stride}
	if *jsonl == "-" {
		prm.EventW = os.Stdout
	} else if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simstat: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		prm.EventW = f
	}

	res, snap, err := iobench.RunMeasured(sc, kind, prm)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simstat: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("run %s %s, %dMB file: %.0f KB/s over %v (cpu %v)\n",
		res.Run, res.Kind, *fileMB, res.RateKBs(), res.Elapsed, res.CPUTime)
	win := snap.Hist("core.ra_window")
	fmt.Printf("read-ahead %s: %d triggers, %d hits, %d wasted blocks, mean window %.1f blocks\n",
		sc.ReadAhead, snap.Get("core.ra_triggers"), snap.Get("core.ra_hits"),
		snap.Get("vm.ra_waste"), win.Mean())
	if calls := snap.Get("core.vec_calls"); calls > 0 {
		fmt.Printf("vectored %s: %d calls, %d runs (%d coalesced), %d sieve-waste bytes, %d list transfers\n",
			sc.Vec, calls, snap.Get("core.vec_runs"), snap.Get("core.vec_coalesced"),
			snap.Get("core.sieve_waste"), snap.Get("driver.vec_queued"))
	}
	if sc.Journaled() {
		fmt.Printf("journal %s: %d commits (%d blocks, %d sectors), %d checkpoints (%d blocks), %d staged metadata writes\n",
			sc.Journal, snap.Get("wal.commits"), snap.Get("wal.commit_blocks"), snap.Get("wal.commit_sectors"),
			snap.Get("wal.checkpoints"), snap.Get("wal.checkpoint_blocks"), snap.Get("fs.journal_meta_writes"))
	}
	fmt.Println()
	snap.Format(os.Stdout)
}
