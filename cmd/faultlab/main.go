// Command faultlab sweeps power-cut crash points across an IObench-style
// sequential write and verifies crash consistency of every recovery: the
// machine is cut mid-run at sector granularity, a fresh machine mounts
// the torn image, repairs it, and every acknowledged-durable byte is
// checked against the written pattern.
//
// Usage:
//
//	faultlab [-run A] [-file MB] [-fsync BYTES] [-cuts N] [-parallel N]
//	         [-seed S] [-mem MB] [-ra policy] [-vec strategy] [-journal MODE]
//	         [-vol LEVEL] [-members N] [-stripe KB] [-degraded I,J]
//	faultlab -vol raid1 -members 2 -losemember 1
//
// With -vol the workload runs on a composed volume (concat, raid0,
// raid1, raid5) instead of the single drive; -degraded boots it with
// the listed members already dead, so the sweep proves the durability
// contract holds on a degraded array. -losemember skips the cut sweep
// and instead runs the spindle-loss round trip: build the file, arm a
// hard media fault on that member's first read, and verify a redundant
// volume serves every byte (then rebuilds), while a stripe set reports
// the loss.
//
// With -journal wal (or wal-clustered) the machine runs a metadata
// journal and every recovery goes through log replay instead of
// full-image repair; the report then carries the replay accounting
// (sectors read against the log-size bound).
//
// Exit status is 1 if any cut produces a crash-consistency violation
// (lost acknowledged data, corrupt bytes, or a dirty post-repair check).
package main

import (
	"flag"
	"fmt"
	"os"

	"ufsclust"
	"ufsclust/internal/faultlab"
	"ufsclust/internal/vol"
)

func main() {
	w := faultlab.Workload{Scenario: ufsclust.Scenario{Seed: 42}}
	w.RegisterFlags(flag.CommandLine)
	runName := flag.String("run", "A", "IObench run configuration (A, B, C, D)")
	flag.IntVar(&w.FileMB, "file", 16, "workload file size in MB")
	flag.IntVar(&w.FsyncEvery, "fsync", 1<<20, "fsync interval in bytes (0 = only the final fsync)")
	cuts := flag.Int("cuts", 50, "number of evenly spaced crash points")
	parallel := flag.Int("parallel", 0, "host workers (0 = GOMAXPROCS)")
	loseMember := flag.Int("losemember", -1, "run the spindle-loss round trip against this member instead of the cut sweep")
	flag.Parse()

	var err error
	if w.Run, err = ufsclust.RunByName(*runName); err == nil {
		_, err = w.Options()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultlab: %v\n", err)
		os.Exit(2)
	}

	if *loseMember >= 0 {
		if w.Volume == nil {
			fmt.Fprintln(os.Stderr, "faultlab: -losemember needs -vol")
			os.Exit(2)
		}
		rep, err := faultlab.RunDegradedMember(w, *loseMember)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultlab: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spindle loss sd%d on %s x%d: %s (member failed %v, rebuilt %v)\n",
			rep.Member, w.Volume.Level, w.Volume.Members, rep.Outcome, rep.Failed, rep.Rebuilt)
		if rep.Detail != "" {
			fmt.Printf("  %s\n", rep.Detail)
		}
		if rep.Outcome.Violation() && w.Volume.Level != vol.Concat && w.Volume.Level != vol.RAID0 {
			os.Exit(1)
		}
		return
	}

	sr, err := faultlab.Sweep(w, *cuts, *parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultlab: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(sr.Format())
	if v := sr.Violations(); len(v) != 0 {
		fmt.Fprintf(os.Stderr, "faultlab: %d crash-consistency violations\n", len(v))
		os.Exit(1)
	}
}
