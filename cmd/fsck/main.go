// Command fsck checks the consistency of a UFS image created by
// cmd/mkfs (or dumped from a simulation): superblock, block and inode
// bitmaps, per-file block accounting, directory structure, link counts,
// and summary totals. It writes nothing and prints each change
// ufs.Repair would make, after its class. It is the repository's proof of
// the paper's headline constraint: the clustered engine leaves the
// on-disk format byte-compatible with the legacy one.
package main

import (
	"flag"
	"fmt"
	"os"

	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fsck <image>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()

	s := sim.New(0)
	defer s.Close()
	d := disk.New(s, "sd0", disk.DefaultParams())
	if err := d.LoadImage(f); err != nil {
		fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
		os.Exit(1)
	}
	rep, err := ufs.Fsck(d)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsck: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%d files, %d directories, %d fragments used, %d free\n",
		rep.Files, rep.Dirs, rep.UsedFrags, rep.FreeFrags)
	if !rep.Clean() {
		for _, p := range rep.Problems {
			fmt.Printf("  PROBLEM: %s\n", p)
		}
		fmt.Printf("%d problem(s) found\n", len(rep.Problems))
		os.Exit(1)
	}
	fmt.Println("clean")
}
