package main

import (
	"fmt"
	"sort"
	"time"

	"ufsclust"
	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/extfs"
	"ufsclust/internal/raw"
	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// The ladder drives one workload — a sequential read of the whole file
// in 8 KB calls — through each rung's public read call. Adjacent rungs
// differ by one layer, so a rung's value minus the rung below is that
// layer's cost, in both clocks.
var ladderRungs = []string{"raw", "raw_raid5", "extfs", "ufs_legacy", "ufs_clustered", "ufs_clustered_wal"}

// ladderReps is how many times each rung runs; host time is their median.
const ladderReps = 3

type rungResult struct {
	virtKBs, virtCPUMsPerMB, hostUsPerCall float64
}

func runLadder(sz sizes, seed int64) (map[string]rungResult, error) {
	all := workloads()
	journaled := all[0]
	journaled.opts = func() []ufsclust.Option { return []ufsclust.Option{ufsclust.WithJournal(wal.Config{})} }
	ufsRung := map[string]*workload{"ufs_legacy": &all[1], "ufs_clustered": &all[0], "ufs_clustered_wal": &journaled}

	out := map[string]rungResult{}
	for _, rung := range ladderRungs {
		var res rungResult
		var host []float64
		for i := 0; i < ladderReps; i++ {
			var (
				one rungResult
				err error
			)
			if w := ufsRung[rung]; w != nil {
				one, err = ufsRungRep(w, sz, seed)
			} else {
				one, err = lowRungRep(rung, sz, seed)
			}
			if err != nil {
				return nil, fmt.Errorf("ladder %s: %w", rung, err)
			}
			res = one
			host = append(host, one.hostUsPerCall)
		}
		sort.Float64s(host)
		res.hostUsPerCall = median(host)
		out[rung] = res
	}
	return out, nil
}

func ufsRungRep(w *workload, sz sizes, seed int64) (rungResult, error) {
	r, err := runRep(w, sz, seed, false)
	if err != nil {
		return rungResult{}, err
	}
	if r.failed > 0 {
		return rungResult{}, r.firstErr
	}
	v := &r.virt
	return rungResult{
		virtKBs:        kbs(v),
		virtCPUMsPerMB: cpuMsPerMB(v),
		hostUsPerCall:  float64(r.host.Nanoseconds()) / 1e3 / float64(v.Ops),
	}, nil
}

// lowRungRep runs the rungs below UFS, which have no Machine: the raw
// device over the driver and one disk or a RAID-5 volume, and the
// extent file system. They share the paper's CPU and run A's driver.
func lowRungRep(rung string, sz sizes, seed int64) (rungResult, error) {
	s := sim.New(seed)
	defer s.Close()
	cm := cpu.New(s, 12)
	var dev disk.Device = disk.New(s, "sd0", disk.DefaultParams())
	if rung == "raw_raid5" {
		v, err := vol.New(s, "vol0", vol.Config{Level: vol.RAID5, Members: 4})
		if err != nil {
			return rungResult{}, err
		}
		dev = v
	}
	dc := *ufsclust.RunA().Options().Driver
	drv := driver.New(s, dev, cm, dc)

	pat := &rep{salt: saltOf(seed)}
	var read func(p *sim.Proc, off int64, b []byte) (int, error)
	var prepare func(p *sim.Proc) error
	switch rung {
	case "raw", "raw_raid5":
		// No file system: the pattern goes straight onto the platter.
		chunk := make([]byte, 128<<10)
		for off := int64(0); off < sz.fileBytes; off += int64(len(chunk)) {
			pat.fill(chunk, off)
			dev.WriteImage(off/disk.SectorSize, chunk)
		}
		read = raw.Open(drv, cm).ReadAt
	case "extfs":
		if err := extfs.Mkfs(dev); err != nil {
			return rungResult{}, err
		}
		fs, err := extfs.Mount(s, cm, drv)
		if err != nil {
			return rungResult{}, err
		}
		f, err := fs.Create("data", 256) // 2 MB extents: the inode holds 12
		if err != nil {
			return rungResult{}, err
		}
		prepare = func(p *sim.Proc) error {
			chunk := make([]byte, 128<<10)
			for off := int64(0); off < sz.fileBytes; off += int64(len(chunk)) {
				pat.fill(chunk, off)
				if err := f.Write(p, off, chunk); err != nil {
					return err
				}
			}
			return nil
		}
		read = f.Read
	default:
		return rungResult{}, fmt.Errorf("unknown rung")
	}

	var res rungResult
	var runErr error
	s.Spawn("ladder", func(p *sim.Proc) {
		if prepare != nil {
			if runErr = prepare(p); runErr != nil {
				return
			}
		}
		buf := make([]byte, ioSize)
		cpu0, v0 := cm.SystemTime(), p.Now()
		var host time.Duration // inside the read calls, as in rep.end
		calls := 0
		for off := int64(0); off < sz.fileBytes; off += ioSize {
			h0 := time.Now()
			n, err := read(p, off, buf)
			host += time.Since(h0)
			if err == nil && (n != ioSize || !pat.matches(buf, off)) {
				err = errPattern
			}
			if err != nil {
				runErr = fmt.Errorf("read at %d: %w", off, err)
				return
			}
			calls++
		}
		elapsed, cpuT := p.Now()-v0, cm.SystemTime()-cpu0
		mb := float64(sz.fileBytes) / (1 << 20)
		res = rungResult{
			virtKBs:        float64(sz.fileBytes) / 1024 / elapsed.Seconds(),
			virtCPUMsPerMB: float64(cpuT) / 1e6 / mb,
			hostUsPerCall:  float64(host.Nanoseconds()) / 1e3 / float64(calls),
		}
	})
	if err := s.Run(); err != nil {
		return rungResult{}, err
	}
	return res, runErr
}
