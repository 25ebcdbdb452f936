package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vm"
)

type rig struct {
	s   *sim.Sim
	d   *disk.Disk
	dr  *driver.Driver
	fs  *ufs.Fs
	v   *vm.VM
	eng *Engine
}

func newRig(t *testing.T, mkfs ufs.MkfsOpts, cfg Config, writeLimit int64) *rig {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	cm := cpu.New(s, 12)
	dp := disk.DefaultParams()
	dp.Geom = disk.UniformGeometry(96, 8, 64, 3600) // ~25 MB
	d := disk.New(s, "d0", dp)
	dc := driver.DefaultConfig()
	dc.MaxPhys = 128 << 10
	dr := driver.New(s, d, cm, dc)
	if _, err := ufs.Mkfs(d, mkfs); err != nil {
		t.Fatal(err)
	}
	fs, err := ufs.Mount(s, cm, dr, ufs.MountOpts{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(s, cm, 8<<20)
	v.Adversary = adversary
	cfg.WriteLimit = writeLimit
	eng := NewEngine(s, cm, v, fs, cfg)
	return &rig{s: s, d: d, dr: dr, fs: fs, v: v, eng: eng}
}

// adversary turns on the adversarial pageout in every rig newRig builds.
var adversary bool

// TestContentsSurviveAdversarialPageout runs every test that compares
// file contents again, with the VM stealing and poisoning each clean
// page nobody holds at every point where a process may have slept. Code
// that keeps a page across a sleep without holding it then reads poison
// at any memory size. Tests that pin counts are not rerun: any adversary
// moves those.
func TestContentsSurviveAdversarialPageout(t *testing.T) {
	for _, test := range []func(*testing.T){
		TestWriteReadBackClustered, TestWriteReadBackLegacy,
		TestWriteReadBackUnalignedSizes, TestWriteReadBackSmallFile,
		TestPartialOverwrite, TestSparseFileReadsZeros, TestTruncateDropsCachedPages,
		TestConcurrentStreamsDataIntact, TestBmapCacheInvalidatedByReallocation,
		TestRandomClusteringDataIntact,
		TestCrashLosesOnlyUnsyncedData, TestPropertyFileIsAFlatArray,
		TestPropertyLastBlockIsAFlatArray, TestReadvEdgeCases, TestReadvHoles,
		TestWritevEdgeCases,
	} {
		name := runtime.FuncForPC(reflect.ValueOf(test).Pointer()).Name()
		t.Run(name[strings.LastIndex(name, ".")+1:], func(t *testing.T) {
			adversary = true
			defer func() { adversary = false }()
			test(t)
		})
	}
}

func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.s.Spawn("test", fn)
	if err := r.s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func clusteredOpts() (ufs.MkfsOpts, Config) {
	return ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 15}, ConfigA()
}

func legacyOpts() (ufs.MkfsOpts, Config) {
	return ufs.MkfsOpts{Rotdelay: 4, Maxcontig: 1}, ConfigD()
}

// pattern fills buf with a position-dependent byte sequence.
func pattern(buf []byte, seed int64) {
	for i := range buf {
		buf[i] = byte((int64(i)*2654435761 + seed) >> 3)
	}
}

func testWriteReadBack(t *testing.T, mk ufs.MkfsOpts, cfg Config, size int) {
	t.Helper()
	r := newRig(t, mk, cfg, 240<<10)
	data := make([]byte, size)
	pattern(data, 42)
	r.run(t, func(p *sim.Proc) {
		f, err := r.eng.Create(p, "/f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// Write in 8 KB chunks like IObench.
		for off := 0; off < size; off += 8192 {
			n := 8192
			if off+n > size {
				n = size - off
			}
			if _, err := f.Write(p, int64(off), data[off:off+n]); err != nil {
				t.Errorf("write at %d: %v", off, err)
				return
			}
		}
		f.Fsync(p)
		// Read back through the cache.
		got := make([]byte, size)
		for off := 0; off < size; off += 8192 {
			n := 8192
			if off+n > size {
				n = size - off
			}
			if _, err := f.Read(p, int64(off), got[off:off+n]); err != nil {
				t.Errorf("read at %d: %v", off, err)
				return
			}
		}
		if !bytes.Equal(got, data) {
			t.Error("cached read-back mismatch")
		}
	})
	// Verify the bits on the platter by remounting cold.
	r.fs.SyncImage()
	rep, err := ufs.Fsck(r.d)
	if err != nil || !rep.Clean() {
		t.Fatalf("fsck: %v %v", err, rep.Problems)
	}
	s2 := sim.New(9)
	defer s2.Close()
	d2 := r.d // same image; fresh everything else
	dr2 := driver.New(s2, d2, nil, driver.DefaultConfig())
	_ = dr2
	// Cold read: rebuild the whole stack over the same disk object is
	// not possible (the disk belongs to r.s), so verify via the image:
	// walk the file's blocks offline.
	verifyFileImage(t, r, "/f", data)
}

// verifyFileImage reads a file's content straight from the platter.
func verifyFileImage(t *testing.T, r *rig, path string, want []byte) {
	t.Helper()
	r.fs.SyncImage()
	var ip *ufs.Inode
	r.s.Spawn("verify", func(p *sim.Proc) {
		var err error
		ip, err = r.fs.Namei(p, path)
		if err != nil {
			t.Errorf("namei: %v", err)
			return
		}
		sb := r.fs.SB
		got := make([]byte, 0, len(want))
		blk := make([]byte, sb.Bsize)
		for lbn := int64(0); lbn*int64(sb.Bsize) < ip.D.Size; lbn++ {
			fsbn, _, err := r.fs.Bmap(p, ip, lbn)
			if err != nil {
				t.Errorf("bmap: %v", err)
				return
			}
			n := sb.BlkSize(ip.D.Size, lbn)
			want8 := blk[:((n+511)/512)*512]
			if fsbn == 0 {
				for i := range want8 {
					want8[i] = 0
				}
			} else {
				r.d.ReadImage(sb.FsbToDb(fsbn), want8)
			}
			end := ip.D.Size - lbn*int64(sb.Bsize)
			if end > int64(sb.Bsize) {
				end = int64(sb.Bsize)
			}
			got = append(got, want8[:end]...)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("platter content mismatch for %s", path)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadBackClustered(t *testing.T) {
	mk, cfg := clusteredOpts()
	testWriteReadBack(t, mk, cfg, 1<<20)
}

func TestWriteReadBackLegacy(t *testing.T) {
	mk, cfg := legacyOpts()
	testWriteReadBack(t, mk, cfg, 1<<20)
}

func TestWriteReadBackUnalignedSizes(t *testing.T) {
	mk, cfg := clusteredOpts()
	testWriteReadBack(t, mk, cfg, 1<<20+3000) // fragment tail beyond direct range? no: >12 blocks -> full blocks
}

func TestWriteReadBackSmallFile(t *testing.T) {
	mk, cfg := clusteredOpts()
	testWriteReadBack(t, mk, cfg, 5000) // fragment tail
}

func TestPartialOverwrite(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		base := make([]byte, 64<<10)
		pattern(base, 1)
		f.Write(p, 0, base)
		f.Fsync(p)
		// Overwrite 100 bytes straddling a block boundary.
		patch := make([]byte, 100)
		pattern(patch, 2)
		off := int64(8192 - 50)
		f.Write(p, off, patch)
		f.Fsync(p)
		copy(base[off:], patch)
		got := make([]byte, len(base))
		f.Read(p, 0, got)
		if !bytes.Equal(got, base) {
			t.Error("partial overwrite corrupted data")
		}
	})
	verifyOK(t, r)
}

func verifyOK(t *testing.T, r *rig) {
	t.Helper()
	r.fs.SyncImage()
	rep, err := ufs.Fsck(r.d)
	if err != nil || !rep.Clean() {
		t.Fatalf("fsck: %v %v", err, rep.Problems)
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/sparse")
		one := make([]byte, 8192)
		pattern(one, 3)
		// Write only block 5.
		f.Write(p, 5*8192, one)
		f.Fsync(p)
		got := make([]byte, 8192)
		f.Read(p, 0, got) // hole
		for _, b := range got {
			if b != 0 {
				t.Error("hole read nonzero")
				return
			}
		}
		f.Read(p, 5*8192, got)
		if !bytes.Equal(got, one) {
			t.Error("block 5 mismatch")
		}
		if r.eng.Stats.ZeroFills == 0 {
			t.Error("no zero-fill recorded for the hole")
		}
	})
	verifyOK(t, r)
}

func TestLegacyRandomReadNoReadAhead(t *testing.T) {
	mk, cfg := legacyOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		data := make([]byte, 256<<10)
		f.Write(p, 0, data)
		f.Purge(p)
		r.eng.Stats = Stats{}
		buf := make([]byte, 8192)
		// Random, non-sequential faults (descending, so never lbn==nextr).
		for _, lbn := range []int64{20, 7, 15, 3, 11} {
			f.Read(p, lbn*8192, buf)
		}
		if r.eng.Stats.AsyncReads != 0 {
			t.Errorf("random reads triggered %d read-aheads", r.eng.Stats.AsyncReads)
		}
		if r.eng.Stats.SyncReads != 5 {
			t.Errorf("sync reads = %d, want 5", r.eng.Stats.SyncReads)
		}
	})
}

func TestClusteredReadMovesWholeClusters(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		const size = 960 << 10 // 120 blocks = 8 full 15-block clusters
		data := make([]byte, size)
		f.Write(p, 0, data)
		f.Purge(p)
		r.d.Stats = disk.Stats{}
		buf := make([]byte, 8192)
		for off := int64(0); off < size; off += 8192 {
			f.Read(p, off, buf)
		}
		// 120 blocks in 15-block clusters: ~8-10 disk reads, not 120.
		if r.d.Stats.Reads > 16 {
			t.Errorf("disk reads = %d for 120 blocks, want ~8 (clustered)", r.d.Stats.Reads)
		}
	})
}

func TestLegacyReadIsBlockAtATime(t *testing.T) {
	mk, cfg := legacyOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		const size = 480 << 10 // 60 blocks
		data := make([]byte, size)
		f.Write(p, 0, data)
		f.Purge(p)
		r.d.Stats = disk.Stats{}
		buf := make([]byte, 8192)
		for off := int64(0); off < size; off += 8192 {
			f.Read(p, off, buf)
		}
		if r.d.Stats.Reads < 60 {
			t.Errorf("disk reads = %d for 60 blocks, want >= 60 (block at a time)", r.d.Stats.Reads)
		}
	})
}

func TestRandomWritesFlushPreviousWindow(t *testing.T) {
	r := newRig(t, ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 8}, ConfigA(), 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		// Preallocate so random updates have backing store.
		f.Write(p, 0, make([]byte, 256<<10))
		f.Purge(p)
		r.eng.Stats = Stats{}
		buf := make([]byte, 8192)
		// Random (non-adjacent) writes: each breaks sequentiality and
		// must flush the previous single page.
		for _, lbn := range []int64{9, 2, 17, 5, 23} {
			f.Write(p, lbn*8192, buf)
		}
		if r.eng.Stats.Pushes < 4 {
			t.Errorf("pushes = %d, want >= 4 (each random write flushes the last)", r.eng.Stats.Pushes)
		}
		f.Fsync(p)
	})
	verifyOK(t, r)
}

func TestClusteredWriteMovesWholeClusters(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		const size = 960 << 10
		data := make([]byte, size)
		pattern(data, 7)
		for off := 0; off < size; off += 8192 {
			f.Write(p, int64(off), data[off:off+8192])
		}
		f.Fsync(p)
		if r.d.Stats.Writes > 20 {
			t.Errorf("disk writes = %d for 120 blocks, want ~9 (clustered)", r.d.Stats.Writes)
		}
	})
	verifyOK(t, r)
}

func TestLegacyWriteIsBlockAtATime(t *testing.T) {
	mk, cfg := legacyOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		const size = 480 << 10
		for off := 0; off < size; off += 8192 {
			f.Write(p, int64(off), make([]byte, 8192))
		}
		f.Fsync(p)
		if r.d.Stats.Writes < 60 {
			t.Errorf("disk writes = %d for 60 blocks, want >= 60", r.d.Stats.Writes)
		}
	})
}

// --- write limit -----------------------------------------------------------

func TestWriteLimitBoundsQueue(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 240<<10)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		// Pour 4 MB in as fast as possible; the limit must stall us.
		for off := 0; off < 4<<20; off += 8192 {
			f.Write(p, int64(off), make([]byte, 8192))
		}
		f.Fsync(p)
		if r.eng.Stats.WriteStalls == 0 {
			t.Error("4MB burst never stalled on the 240KB write limit")
		}
	})
	// The driver queue should never have exceeded the limit by much.
	maxQueued := int64(r.dr.Stats.MaxQueue) * (120 << 10)
	_ = maxQueued // depth in requests; limit is in bytes per file
}

func TestNoWriteLimitNoStalls(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		for off := 0; off < 2<<20; off += 8192 {
			f.Write(p, int64(off), make([]byte, 8192))
		}
		f.Fsync(p)
		if r.eng.Stats.WriteStalls != 0 {
			t.Errorf("stalls = %d with no limit", r.eng.Stats.WriteStalls)
		}
	})
}

// --- free-behind -----------------------------------------------------------

func TestFreeBehindRecyclesPages(t *testing.T) {
	// Stream a file larger than memory with free-behind on: the
	// process should free its own pages, and the daemon should barely
	// run.
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	const size = 12 << 20 // > 8 MB memory
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/big")
		chunk := make([]byte, 64<<10)
		for off := 0; off < size; off += len(chunk) {
			f.Write(p, int64(off), chunk)
		}
		f.Purge(p)
		r.eng.Stats = Stats{}
		r.v.Stats = vm.Stats{}
		buf := make([]byte, 8192)
		for off := int64(0); off < size; off += 8192 {
			f.Read(p, off, buf)
		}
		if r.eng.Stats.FreeBehinds == 0 {
			t.Error("free-behind never triggered on a >memory sequential read")
		}
		if r.v.Stats.FreeBehind == 0 {
			t.Error("vm never saw front-freed pages")
		}
	})
}

func TestNoFreeBehindDaemonMustRun(t *testing.T) {
	mk, _ := clusteredOpts()
	cfg := ConfigA()
	cfg.FreeBehind = false
	r := newRig(t, mk, cfg, 0)
	const size = 12 << 20
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/big")
		chunk := make([]byte, 64<<10)
		for off := 0; off < size; off += len(chunk) {
			f.Write(p, int64(off), chunk)
		}
		f.Purge(p)
		r.v.Stats = vm.Stats{}
		buf := make([]byte, 8192)
		for off := int64(0); off < size; off += 8192 {
			f.Read(p, off, buf)
		}
		if r.v.Stats.DaemonRuns == 0 {
			t.Error("pageout daemon never ran without free-behind on a >memory read")
		}
	})
}

// --- mmap path -------------------------------------------------------------

func TestReadMmapSkipsCopyCost(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		f.Write(p, 0, make([]byte, 1<<20))
		f.Purge(p)
		r.eng.CPU.Reset()
		if err := f.ReadMmap(p, 0, 1<<20); err != nil {
			t.Errorf("mmap read: %v", err)
		}
		bk := r.eng.CPU.Buckets()
		if bk[cpu.Copy].Instr != 0 {
			t.Errorf("mmap read charged %d copy instructions", bk[cpu.Copy].Instr)
		}
		if bk[cpu.Fault].Count != 128 {
			t.Errorf("mmap read faulted %d times, want 128", bk[cpu.Fault].Count)
		}
	})
}

// TestReadWriteChargeOneMapPerBlock: a read(2) or write(2) of N blocks
// is one syscall entry plus N kernel-window map/unmap charges, and the
// map cost lands in the map category, not the syscall one.
func TestReadWriteChargeOneMapPerBlock(t *testing.T) {
	const blocks = 16
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		buf := make([]byte, blocks*8192)
		for _, op := range []struct {
			name string
			do   func() (int, error)
		}{
			{"write", func() (int, error) { return f.Write(p, 0, buf) }},
			{"read", func() (int, error) { return f.Read(p, 0, buf) }},
		} {
			r.eng.CPU.Reset()
			if _, err := op.do(); err != nil {
				t.Errorf("%s: %v", op.name, err)
				return
			}
			bk := r.eng.CPU.Buckets()
			if m := bk[cpu.MapUnmap]; m.Count != blocks || m.Instr != blocks*cpu.MapBlockInstr {
				t.Errorf("%s of %d blocks: %d map charges (%d instructions), want %d (%d)",
					op.name, blocks, m.Count, m.Instr, blocks, blocks*cpu.MapBlockInstr)
			}
			if s := bk[cpu.Syscall]; s.Count != 1 || s.Instr != cpu.SyscallInstr {
				t.Errorf("%s: %d syscall charges (%d instructions), want 1 (%d)",
					op.name, s.Count, s.Instr, cpu.SyscallInstr)
			}
		}
	})
}

// --- truncate + engine ------------------------------------------------------

func TestTruncateDropsCachedPages(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		data := make([]byte, 256<<10)
		pattern(data, 11)
		f.Write(p, 0, data)
		f.Fsync(p)
		if err := f.Truncate(p, 8192); err != nil {
			t.Errorf("truncate: %v", err)
		}
		if f.Size() != 8192 {
			t.Errorf("size = %d", f.Size())
		}
		got := make([]byte, 8192)
		n, _ := f.Read(p, 0, got)
		if n != 8192 || !bytes.Equal(got, data[:8192]) {
			t.Error("first block lost by truncate")
		}
		n, _ = f.Read(p, 8192, got)
		if n != 0 {
			t.Errorf("read past truncated EOF returned %d bytes", n)
		}
	})
	verifyOK(t, r)
}

// --- run B degrades gracefully ----------------------------------------------

func TestRunBClusterOfOneBlock(t *testing.T) {
	// Clustered code on an old-format fs (rotdelay placement) must see
	// bmap runs of 1 and behave like the legacy engine: "an old file
	// system will always send back a cluster of one block."
	cfg := ConfigA() // clustering engine
	r := newRig(t, ufs.MkfsOpts{Rotdelay: 4, Maxcontig: 1}, cfg, 0)
	r.run(t, func(p *sim.Proc) {
		f, _ := r.eng.Create(p, "/f")
		const size = 240 << 10 // 30 blocks
		f.Write(p, 0, make([]byte, size))
		f.Fsync(p)
		if r.d.Stats.Writes < 30 {
			t.Errorf("writes = %d; clusters should degrade to single blocks", r.d.Stats.Writes)
		}
		f.Purge(p)
		r.d.Stats = disk.Stats{}
		buf := make([]byte, 8192)
		for off := int64(0); off < size; off += 8192 {
			f.Read(p, off, buf)
		}
		if r.d.Stats.Reads < 30 {
			t.Errorf("reads = %d; want block-at-a-time on old format", r.d.Stats.Reads)
		}
	})
	verifyOK(t, r)
}

func TestConcurrentStreamsDataIntact(t *testing.T) {
	// Three processes work simultaneously — two sequential streams and
	// one random updater on separate files — exercising page locking,
	// shared CPU, disksort interleaving, and the write limit together.
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 240<<10)
	const fsize = 1 << 20
	datasets := make([][]byte, 3)
	for i := range datasets {
		datasets[i] = make([]byte, fsize)
		pattern(datasets[i], int64(100+i))
	}
	files := make([]*File, 3)
	r.run(t, func(p *sim.Proc) {
		for i := range files {
			f, err := r.eng.Create(p, "/stream"+itoa(i))
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			files[i] = f
		}
		done := 0
		var q sim.WaitQ
		for i := range files {
			i := i
			r.s.Spawn("worker", func(wp *sim.Proc) {
				f, data := files[i], datasets[i]
				for off := 0; off < fsize; off += 8192 {
					f.Write(wp, int64(off), data[off:off+8192])
				}
				f.Fsync(wp)
				// Random rewrites of our own file.
				for j := 0; j < 20; j++ {
					off := r.s.Rand.Int63n(fsize/8192) * 8192
					f.Write(wp, off, data[off:off+8192])
				}
				f.Fsync(wp)
				done++
				q.WakeAll()
			})
		}
		for done < 3 {
			p.Block(&q)
		}
		// Verify everything cold.
		for i, f := range files {
			f.Purge(p)
			got := make([]byte, fsize)
			f.Read(p, 0, got)
			if !bytes.Equal(got, datasets[i]) {
				t.Errorf("stream %d corrupted under concurrency", i)
			}
		}
	})
	verifyOK(t, r)
}

func itoa(i int) string {
	return string(rune('0' + i))
}
