// Command mkfs creates a UFS file system on a simulated-disk image
// file, with the paper's tuning knobs exposed: rotdelay (figure 4's
// interleave) and maxcontig (the cluster size).
//
//	mkfs -o image.ufs                      # 400MB drive, run-D tuning
//	mkfs -o image.ufs -rotdelay 0 -maxcontig 15   # run-A tuning
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
	out := flag.String("o", "", "output image file (required)")
	cyls := flag.Int("cylinders", 1520, "disk cylinders")
	heads := flag.Int("heads", 8, "disk heads")
	spt := flag.Int("spt", 64, "sectors per track")
	rotdelay := flag.Int("rotdelay", 4, "rotational delay in ms (0 = contiguous allocation)")
	maxcontig := flag.Int("maxcontig", 1, "cluster size in blocks")
	minfree := flag.Int("minfree", 10, "reserved free space percent")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	s := sim.New(0)
	defer s.Close()
	p := disk.DefaultParams()
	geom, err := disk.NewGeometry(*heads, 3600, disk.Zone{Cylinders: *cyls, SPT: *spt})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkfs: %v\n", err)
		os.Exit(2)
	}
	p.Geom = geom
	d := disk.New(s, "sd0", p)
	sb, err := ufs.Mkfs(d, ufs.MkfsOpts{
		Rotdelay:  *rotdelay,
		Maxcontig: *maxcontig,
		Minfree:   *minfree,
	})
	if err != nil {
		// Every Mkfs error names a flag value it cannot build from.
		fmt.Fprintf(os.Stderr, "mkfs: %v\n", err)
		os.Exit(2)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mkfs: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := d.DumpImage(f); err != nil {
		fmt.Fprintf(os.Stderr, "mkfs: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d cylinder groups, %d fragments (%.0fMB), bsize %d, fsize %d, rotdelay %dms, maxcontig %d\n",
		*out, sb.Ncg, sb.Size, float64(sb.Size)*float64(sb.Fsize)/(1<<20),
		sb.Bsize, sb.Fsize, sb.Rotdelay, sb.Maxcontig)
}
