// Benchmarks for the paper's access-pattern and placement figures and
// the three measurements that are not a cell of BENCH_iobench.json:
// the extent file system and the raw disk, which are not a ufsclust
// machine, and B_ORDER's rm *. Each benchmark measures the host cost of
// the simulation (the usual Go numbers) and reports the experiment's
// own metric — virtual-time transfer rates, CPU time — via
// b.ReportMetric, so `go test -bench=.` prints the reproduction next to
// the benchmark. The paper's evaluation tables themselves (Figures
// 10-12, the intro claim, the allocator extents, MusBus), its
// design-discussion ablations and its Further Work ideas are gated
// cells of BENCH_iobench.json, not benchmarks.
package ufsclust_test

import (
	"fmt"
	"testing"

	"ufsclust"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/extfs"
	"ufsclust/internal/raw"
	"ufsclust/internal/sim"
	"ufsclust/internal/trace"
	"ufsclust/internal/ufs"
)

// --- Figures 3, 6, 7: access patterns ------------------------------------

func BenchmarkFig03LegacyReadahead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06ClusterRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07ClusterWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := trace.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 4, 5: allocator placement ------------------------------------

func benchPlacement(b *testing.B, rotdelay int) (gapBlocks int32) {
	for i := 0; i < b.N; i++ {
		m, err := ufsclust.NewMachine(ufsclust.Options{Mkfs: ufs.MkfsOpts{Rotdelay: rotdelay, Maxcontig: 7}})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		gapBlocks = m.FS.SB.GapBlocks()
		err = m.Run(func(p *sim.Proc) {
			ip, err := m.FS.Create(p, "/f")
			if err != nil {
				b.Error(err)
				return
			}
			for lbn := int64(0); lbn < 64; lbn++ {
				if _, err := m.FS.BmapAlloc(p, ip, lbn, int(m.FS.SB.Bsize)); err != nil {
					b.Error(err)
					return
				}
				ip.D.Size = (lbn + 1) * int64(m.FS.SB.Bsize)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return gapBlocks
}

func BenchmarkFig04InterleavedPlacement(b *testing.B) {
	gap := benchPlacement(b, 4)
	b.ReportMetric(float64(gap), "gap-blocks")
}

func BenchmarkFig05ContiguousPlacement(b *testing.B) {
	gap := benchPlacement(b, 0)
	b.ReportMetric(float64(gap), "gap-blocks")
}

// --- Ablation: extents vs clustering ------------------------------------------

// BenchmarkExtentVsCluster compares a true extent-based file system
// (user-chosen 120 KB extents, preallocated) with clustered UFS on the
// same sequential workload: the paper's thesis is that the two are
// comparable, without the format change.
func BenchmarkExtentVsCluster(b *testing.B) {
	const size = 8 << 20
	b.Run("extfs", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			s := sim.New(1)
			dp := disk.DefaultParams()
			d := disk.New(s, "d0", dp)
			if err := extfs.Mkfs(d); err != nil {
				b.Fatal(err)
			}
			dc := driver.DefaultConfig()
			dc.MaxPhys = 128 << 10
			dr := driver.New(s, d, nil, dc)
			fs, err := extfs.Mount(s, nil, dr)
			if err != nil {
				b.Fatal(err)
			}
			var elapsed sim.Time
			s.Spawn("bench", func(p *sim.Proc) {
				f, err := fs.Create("seq", 128) // 1MB extents (12 slots must cover 8MB)
				if err != nil {
					b.Error(err)
					return
				}
				if err := f.Preallocate(size); err != nil {
					b.Error(err)
					return
				}
				t0 := p.Now()
				buf := make([]byte, 120<<10)
				for off := int64(0); off < size; off += int64(len(buf)) {
					n := int64(len(buf))
					if off+n > size {
						n = size - off
					}
					f.Write(p, off, buf[:n])
				}
				elapsed = p.Now() - t0
			})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
			rate = float64(size) / 1024 / elapsed.Seconds()
		}
		b.ReportMetric(rate, "virtKB/s")
	})
	b.Run("clustered-ufs", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			m, err := ufsclust.New(ufsclust.RunA())
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			var elapsed sim.Time
			err = m.Run(func(p *sim.Proc) {
				f, err := m.Engine.Create(p, "/seq")
				if err != nil {
					b.Error(err)
					return
				}
				t0 := p.Now()
				buf := make([]byte, 120<<10)
				for off := int64(0); off < size; off += int64(len(buf)) {
					n := int64(len(buf))
					if off+n > size {
						n = size - off
					}
					f.Write(p, off, buf[:n])
				}
				f.Fsync(p)
				elapsed = p.Now() - t0
			})
			if err != nil {
				b.Fatal(err)
			}
			rate = float64(size) / 1024 / elapsed.Seconds()
		}
		b.ReportMetric(rate, "virtKB/s")
	})
}

// --- Baseline: raw disk --------------------------------------------------------

// BenchmarkRawDisk is the "act of desperation": the deliverable
// bandwidth with no file system at all, an upper bound for everything
// above.
func BenchmarkRawDisk(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		d := disk.New(s, "d0", disk.DefaultParams())
		dc := driver.DefaultConfig()
		dc.MaxPhys = 128 << 10
		dev := raw.Open(driver.New(s, d, nil, dc), nil)
		const size = 8 << 20
		var elapsed sim.Time
		s.Spawn("bench", func(p *sim.Proc) {
			buf := make([]byte, 128<<10)
			t0 := p.Now()
			for off := int64(0); off < size; off += int64(len(buf)) {
				dev.ReadAt(p, off, buf)
			}
			elapsed = p.Now() - t0
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		rate = float64(size) / 1024 / elapsed.Seconds()
	}
	b.ReportMetric(rate, "virtKB/s")
}

// --- Further Work: ordered metadata writes ------------------------------------

// BenchmarkFwOrderedRmStar measures B_ORDER: "The performance of
// commands like rm * would improve substantially."
func BenchmarkFwOrderedRmStar(b *testing.B) {
	for _, ordered := range []bool{false, true} {
		ordered := ordered
		name := "sync"
		if ordered {
			name = "b-order"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed sim.Time
			for i := 0; i < b.N; i++ {
				o := ufsclust.RunA().Options()
				o.Mount.OrderedWrites = ordered
				m, err := ufsclust.NewMachine(o)
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				const nfiles = 64
				err = m.Run(func(p *sim.Proc) {
					for j := 0; j < nfiles; j++ {
						f, err := m.Engine.Create(p, fmt.Sprintf("/f%d", j))
						if err != nil {
							b.Error(err)
							return
						}
						f.Write(p, 0, make([]byte, 8192))
						f.Fsync(p)
					}
					t0 := p.Now()
					for j := 0; j < nfiles; j++ {
						if err := m.Engine.Remove(p, fmt.Sprintf("/f%d", j)); err != nil {
							b.Error(err)
							return
						}
					}
					elapsed = p.Now() - t0
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(elapsed.Seconds()*1000, "virt-ms")
		})
	}
}
