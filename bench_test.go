// Benchmarks for the paper's access-pattern and placement figures and
// the ablations its design discussion implies. Each benchmark measures
// the host cost of the simulation (the usual Go numbers) and reports
// the experiment's own metric — virtual-time transfer rates, CPU time —
// via b.ReportMetric, so `go test -bench=.` prints the reproduction next
// to the benchmark. The paper's evaluation tables themselves (Figures
// 10-12, the intro claim, the allocator extents, MusBus) are gated
// cells of BENCH_iobench.json, not benchmarks.
package ufsclust_test

import (
	"fmt"
	"testing"

	"ufsclust"

	"ufsclust/internal/core"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/extfs"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/raw"
	"ufsclust/internal/runner"
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

// --- In-text: the write-limit sizing argument -------------------------------

// BenchmarkWriteLimitSweep reproduces the paper's sizing discussion: a
// process alternates writes between the beginning and end of a file.
// Too small a limit kills the elevator's chance to sort; 240 KB keeps
// most of the unlimited rate.
func BenchmarkWriteLimitSweep(b *testing.B) {
	limitsKB := []int{8, 56, 240, 0}
	var rates []float64
	for i := 0; i < b.N; i++ {
		var err error
		// The sweep points are independent machines, so they run through
		// the parallel runner; the rates come back in point order.
		rates, err = runner.Map(len(limitsKB), runner.Options{}, func(job int) (float64, error) {
			return writeLimitRate(int64(limitsKB[job]) << 10)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for j, limitKB := range limitsKB {
		name := fmt.Sprintf("limit%dKB-virtKB/s", limitKB)
		if limitKB == 0 {
			name = "unlimited-virtKB/s"
		}
		b.ReportMetric(rates[j], name)
	}
}

// writeLimitRate measures the fairness-stress rate under one write
// limit. It is runner-safe: its machine is private and it reports
// failures as errors rather than through a *testing.B.
func writeLimitRate(limit int64) (float64, error) {
	o := ufsclust.RunA().Options()
	o.Engine.WriteLimit = limit
	m, err := ufsclust.NewMachine(o)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	const n = 256
	var elapsed sim.Time
	var runErr error
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Create(p, "/sweep")
		if err != nil {
			runErr = err
			return
		}
		f.Write(p, 0, make([]byte, 8<<20))
		f.Fsync(p)
		buf := make([]byte, 8192)
		t0 := p.Now()
		for j := 0; j < n; j++ {
			off := int64(j/2) * 8192
			if j%2 == 1 {
				off = 8<<20 - int64(j/2+1)*8192
			}
			f.Write(p, off, buf)
		}
		f.Fsync(p)
		elapsed = p.Now() - t0
	})
	if err != nil {
		return 0, err
	}
	if runErr != nil {
		return 0, runErr
	}
	return float64(n*8192) / 1024 / elapsed.Seconds(), nil
}

// --- Rejected alternative: tuning only (track buffer) ------------------------

// BenchmarkTrackBufferTradeoff is the "file system tuning" alternative:
// rotdelay 0 with the legacy block-at-a-time engine. Reads improve
// (track buffer), but writes "suffer horribly" — write-through means a
// full rotation per block.
func BenchmarkTrackBufferTradeoff(b *testing.B) {
	measure := func(b *testing.B, write bool) float64 {
		var rate float64
		for i := 0; i < b.N; i++ {
			o := ufsclust.Options{
				Mkfs:   ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 1},
				Engine: core.Config{Clustered: false, Prefetch: prefetch.NewFixed()},
			}
			m, err := ufsclust.NewMachine(o)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			const size = 4 << 20
			var elapsed sim.Time
			err = m.Run(func(p *sim.Proc) {
				f, err := m.Engine.Create(p, "/tuned")
				if err != nil {
					b.Error(err)
					return
				}
				chunk := make([]byte, 8192)
				if !write {
					for off := int64(0); off < size; off += 8192 {
						f.Write(p, off, chunk)
					}
					f.Purge(p)
				}
				t0 := p.Now()
				for off := int64(0); off < size; off += 8192 {
					if write {
						f.Write(p, off, chunk)
					} else {
						f.Read(p, off, chunk)
					}
				}
				f.Fsync(p)
				elapsed = p.Now() - t0
			})
			if err != nil {
				b.Fatal(err)
			}
			rate = float64(size) / 1024 / elapsed.Seconds()
		}
		return rate
	}
	b.Run("read", func(b *testing.B) {
		b.ReportMetric(measure(b, false), "virtKB/s")
	})
	b.Run("write", func(b *testing.B) {
		b.ReportMetric(measure(b, true), "virtKB/s")
	})
}

// --- Rejected alternative: driver clustering ---------------------------------

// BenchmarkDriverClustering shows the paper's objection: coalescing in
// the driver helps asynchronous writes but cannot help synchronous
// reads (at most two requests are ever queued), and the file system is
// still traversed per block.
func BenchmarkDriverClustering(b *testing.B) {
	measure := func(b *testing.B, write bool) float64 {
		var rate float64
		for i := 0; i < b.N; i++ {
			dc := driver.DefaultConfig()
			dc.Coalesce = true
			o := ufsclust.Options{
				Mkfs:   ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 1},
				Driver: &dc,
				Engine: core.Config{Clustered: false, Prefetch: prefetch.NewFixed()},
			}
			m, err := ufsclust.NewMachine(o)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			const size = 4 << 20
			var elapsed sim.Time
			err = m.Run(func(p *sim.Proc) {
				f, err := m.Engine.Create(p, "/drvclu")
				if err != nil {
					b.Error(err)
					return
				}
				chunk := make([]byte, 8192)
				if !write {
					for off := int64(0); off < size; off += 8192 {
						f.Write(p, off, chunk)
					}
					f.Purge(p)
				}
				t0 := p.Now()
				for off := int64(0); off < size; off += 8192 {
					if write {
						f.Write(p, off, chunk)
					} else {
						f.Read(p, off, chunk)
					}
				}
				f.Fsync(p)
				elapsed = p.Now() - t0
			})
			if err != nil {
				b.Fatal(err)
			}
			rate = float64(size) / 1024 / elapsed.Seconds()
		}
		return rate
	}
	b.Run("read", func(b *testing.B) {
		b.ReportMetric(measure(b, false), "virtKB/s")
	})
	b.Run("write", func(b *testing.B) {
		b.ReportMetric(measure(b, true), "virtKB/s")
	})
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

// --- Further Work features (paper's final section), as ablations --------------

// BenchmarkFwBmapCache measures the "Bmap cache" idea: "A small cache in
// the inode could reduce the cost of bmap substantially."
func BenchmarkFwBmapCache(b *testing.B) {
	for _, cache := range []bool{false, true} {
		cache := cache
		name := "off"
		if cache {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var cpuS float64
			for i := 0; i < b.N; i++ {
				o := ufsclust.RunA().Options()
				o.Mount.BmapCache = cache
				m, err := ufsclust.NewMachine(o)
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				err = m.Run(func(p *sim.Proc) {
					f, err := m.Engine.Create(p, "/big")
					if err != nil {
						b.Error(err)
						return
					}
					f.Write(p, 0, make([]byte, 4<<20))
					f.Purge(p)
					pre := m.Snapshot()
					buf := make([]byte, 8192)
					for off := int64(0); off < 4<<20; off += 8192 {
						f.Read(p, off, buf)
					}
					cpuS = sim.Time(m.Snapshot().Delta(pre).Get("cpu.system_ns")).Seconds()
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cpuS*1000, "virt-cpu-ms")
		})
	}
}

// BenchmarkFwSkipBmapOnHit measures UFS_HOLE: skipping the defensive
// bmap when the page is cached and the file has no holes.
func BenchmarkFwSkipBmapOnHit(b *testing.B) {
	for _, skip := range []bool{false, true} {
		skip := skip
		name := "off"
		if skip {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var cpuS float64
			for i := 0; i < b.N; i++ {
				o := ufsclust.RunA().Options()
				o.Engine.SkipBmapOnHit = skip
				m, err := ufsclust.NewMachine(o)
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				err = m.Run(func(p *sim.Proc) {
					f, err := m.Engine.Create(p, "/warm")
					if err != nil {
						b.Error(err)
						return
					}
					f.Write(p, 0, make([]byte, 2<<20))
					f.Fsync(p)
					// Warm: everything cached.
					buf := make([]byte, 8192)
					for off := int64(0); off < 2<<20; off += 8192 {
						f.Read(p, off, buf)
					}
					pre := m.Snapshot()
					// Random cached re-reads: the bmap-skip case.
					for j := 0; j < 512; j++ {
						off := m.Sim.Rand.Int63n(2<<20/8192) * 8192
						f.Read(p, off, buf)
					}
					cpuS = sim.Time(m.Snapshot().Delta(pre).Get("cpu.system_ns")).Seconds()
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cpuS*1000, "virt-cpu-ms")
		})
	}
}

// BenchmarkFwRandomClustering measures the request-size hint on random
// 56KB reads ("random reads of 20KB segments ... will not receive the
// full benefits of clustering" without it).
func BenchmarkFwRandomClustering(b *testing.B) {
	for _, hint := range []bool{false, true} {
		hint := hint
		name := "off"
		if hint {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				o := ufsclust.RunA().Options()
				o.Engine.RandomClustering = hint
				m, err := ufsclust.NewMachine(o)
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				const size = 8 << 20
				var elapsed sim.Time
				var moved int64
				err = m.Run(func(p *sim.Proc) {
					f, err := m.Engine.Create(p, "/seg")
					if err != nil {
						b.Error(err)
						return
					}
					chunk := make([]byte, 112<<10)
					for off := int64(0); off < size; off += int64(len(chunk)) {
						f.Write(p, off, chunk)
					}
					f.Purge(p)
					t0 := p.Now()
					segs := size / int64(len(chunk))
					for j := 0; j < 64; j++ {
						off := m.Sim.Rand.Int63n(segs) * int64(len(chunk))
						f.Read(p, off, chunk)
						moved += int64(len(chunk))
					}
					elapsed = p.Now() - t0
				})
				if err != nil {
					b.Fatal(err)
				}
				rate = float64(moved) / 1024 / elapsed.Seconds()
			}
			b.ReportMetric(rate, "virtKB/s")
		})
	}
}

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

// --- Ablation: the rotdelay tuning space ---------------------------------------

// BenchmarkRotdelaySweep sweeps the legacy system's only real knob,
// showing the dead end the paper escaped: every rotdelay caps
// sequential reads near half the disk, and zero trades writes away.
func BenchmarkRotdelaySweep(b *testing.B) {
	rots := []int{8, 4, 0}
	// Each (rotdelay, direction) pair is an independent machine; the
	// runner spreads the six of them over the host cores.
	type point struct {
		rot   int
		write bool
	}
	var points []point
	for _, rot := range rots {
		points = append(points, point{rot, false}, point{rot, true})
	}
	var rates []float64
	for i := 0; i < b.N; i++ {
		var err error
		rates, err = runner.Map(len(points), runner.Options{}, func(job int) (float64, error) {
			return seqRateErr(points[job].rot, false, points[job].write)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for j, pt := range points {
		dir := "read"
		if pt.write {
			dir = "write"
		}
		b.ReportMetric(rates[j], fmt.Sprintf("rot%dms-%s-virtKB/s", pt.rot, dir))
	}
}

// seqRate measures a sequential 4MB read or write on the legacy engine
// (or clustered when clustered is true).
func seqRate(b *testing.B, rotdelay int, clustered, write bool) float64 {
	rate, err := seqRateErr(rotdelay, clustered, write)
	if err != nil {
		b.Fatal(err)
	}
	return rate
}

// seqRateErr is the runner-safe form of seqRate: private machine,
// errors returned rather than reported to a *testing.B.
func seqRateErr(rotdelay int, clustered, write bool) (float64, error) {
	o := ufsclust.Options{
		Mkfs: ufs.MkfsOpts{Rotdelay: rotdelay, Maxcontig: 1},
	}
	o.Engine = core.Config{Prefetch: prefetch.NewFixed()}
	if clustered {
		o.Mkfs.Maxcontig = 15
		o.Engine.Clustered = true
		dc := driver.DefaultConfig()
		dc.MaxPhys = 128 << 10
		o.Driver = &dc
	}
	m, err := ufsclust.NewMachine(o)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	const size = 4 << 20
	var elapsed sim.Time
	var runErr error
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Create(p, "/r")
		if err != nil {
			runErr = err
			return
		}
		chunk := make([]byte, 8192)
		if !write {
			for off := int64(0); off < size; off += 8192 {
				f.Write(p, off, chunk)
			}
			f.Purge(p)
		}
		t0 := p.Now()
		for off := int64(0); off < size; off += 8192 {
			if write {
				f.Write(p, off, chunk)
			} else {
				f.Read(p, off, chunk)
			}
		}
		f.Fsync(p)
		elapsed = p.Now() - t0
	})
	if err != nil {
		return 0, err
	}
	if runErr != nil {
		return 0, runErr
	}
	return float64(size) / 1024 / elapsed.Seconds(), nil
}

// --- Ablation: read-ahead ---------------------------------------------------

// BenchmarkReadAheadAblation isolates the read-ahead heuristic that
// motivates the rotdelay gap in the first place: without it, even the
// gap cannot save sequential reads.
func BenchmarkReadAheadAblation(b *testing.B) {
	for _, ra := range []prefetch.Policy{prefetch.NewFixed(), prefetch.Off()} {
		ra := ra
		name := "with-readahead"
		if ra == nil {
			name = "without"
		}
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				o := ufsclust.Options{Mkfs: ufs.MkfsOpts{Rotdelay: 4, Maxcontig: 1}}
				o.Engine = core.Config{Prefetch: ra}
				m, err := ufsclust.NewMachine(o)
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				const size = 4 << 20
				var elapsed sim.Time
				err = m.Run(func(p *sim.Proc) {
					f, err := m.Engine.Create(p, "/ra")
					if err != nil {
						b.Error(err)
						return
					}
					chunk := make([]byte, 8192)
					for off := int64(0); off < size; off += 8192 {
						f.Write(p, off, chunk)
					}
					f.Purge(p)
					t0 := p.Now()
					for off := int64(0); off < size; off += 8192 {
						f.Read(p, off, chunk)
					}
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
}
