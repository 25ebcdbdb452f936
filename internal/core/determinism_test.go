package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vm"
	"ufsclust/internal/vol"
)

// determinismWorkload drives the full data path — allocation, clustered
// writes, fsync, random and sequential reads, purge, remove, metadata
// sync — drawing every "random" choice from the sim's seeded source.
func determinismWorkload(t *testing.T, r *rig) {
	t.Helper()
	r.run(t, func(p *sim.Proc) {
		rnd := r.s.Rand
		buf := make([]byte, 8192)
		sizes := make([]int, 3)
		for i := range sizes {
			name := fmt.Sprintf("/f%d", i)
			f, err := r.eng.Create(p, name)
			if err != nil {
				t.Errorf("create %s: %v", name, err)
				return
			}
			size := 64<<10 + rnd.Intn(5)*8192
			sizes[i] = size
			data := make([]byte, size)
			pattern(data, int64(i))
			for off := 0; off < size; off += 8192 {
				end := off + 8192
				if end > size {
					end = size
				}
				if _, err := f.Write(p, int64(off), data[off:end]); err != nil {
					t.Errorf("write %s @%d: %v", name, off, err)
					return
				}
			}
			f.Fsync(p)
		}
		f, err := r.eng.Open(p, "/f0")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < 20; i++ {
			off := int64(rnd.Intn(sizes[0]/8192)) * 8192
			if _, err := f.Read(p, off, buf); err != nil {
				t.Errorf("random read @%d: %v", off, err)
				return
			}
		}
		f.Purge(p)
		for off := int64(0); off < f.Size(); off += 8192 {
			if _, err := f.Read(p, off, buf); err != nil {
				t.Errorf("sequential read @%d: %v", off, err)
				return
			}
		}
		if err := r.eng.Remove(p, "/f1"); err != nil {
			t.Errorf("remove: %v", err)
			return
		}
		r.fs.Sync(p)
	})
}

// newVolRig is newRig with the single drive replaced by a composed
// volume: the engine, file system, and driver are wired identically,
// but requests fan out across member spindles whose service processes
// interleave in the scheduler — exactly the extra concurrency the
// determinism gate must prove reproducible. wrap, when non-nil, stands
// between the volume and everything above it (the row-cut tests mask
// the device's write-unit hint this way).
func newVolRig(t *testing.T, mkfs ufs.MkfsOpts, cfg Config, writeLimit int64, vc vol.Config, wrap func(disk.Device) disk.Device) (*rig, *vol.Volume) {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	cm := cpu.New(s, 12)
	if vc.Member == nil {
		dp := disk.DefaultParams()
		dp.Geom = disk.UniformGeometry(96, 8, 64, 3600) // ~25 MB per member
		vc.Member = &dp
	}
	vl, err := vol.New(s, "vol0", vc)
	if err != nil {
		t.Fatal(err)
	}
	var dev disk.Device = vl
	if wrap != nil {
		dev = wrap(vl)
	}
	dc := driver.DefaultConfig()
	dc.MaxPhys = 128 << 10
	dr := driver.New(s, dev, cm, dc)
	if _, err := ufs.Mkfs(dev, mkfs); err != nil {
		t.Fatal(err)
	}
	fs, err := ufs.Mount(s, cm, dr, ufs.MountOpts{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(s, cm, 8<<20)
	cfg.WriteLimit = writeLimit
	eng := NewEngine(s, cm, v, fs, cfg)
	return &rig{s: s, dr: dr, fs: fs, v: v, eng: eng}, vl
}

// replay is everything a run leaves behind that must be reproducible:
// the scheduling trace, the engine's event counters, the final virtual
// time, and the fsck report text.
type replay struct {
	trace string
	stats Stats
	now   sim.Time
	fsck  string
}

// requireSameReplay fails the test wherever two same-seed runs differ.
func requireSameReplay(t *testing.T, a, b replay) {
	t.Helper()
	if a.trace == "" {
		t.Fatal("empty scheduler trace: TraceW is not capturing")
	}
	if a.trace != b.trace {
		t.Errorf("scheduler traces diverge: %s", firstDiff(a.trace, b.trace))
	}
	if a.stats != b.stats {
		t.Errorf("engine stats diverge:\nrun1: %+v\nrun2: %+v", a.stats, b.stats)
	}
	if a.now != b.now {
		t.Errorf("final virtual time diverges: %v vs %v", a.now, b.now)
	}
	if a.fsck != b.fsck {
		t.Errorf("fsck reports diverge: %s", firstDiff(a.fsck, b.fsck))
	}
}

// traceRun executes the workload with the scheduler trace captured, on
// a fresh single-drive rig or, when vc is non-nil, on that volume, then
// checks the image offline.
func traceRun(t *testing.T, vc *vol.Config) replay {
	t.Helper()
	mk, cfg := clusteredOpts()
	var (
		r   *rig
		dev disk.Device
	)
	if vc == nil {
		r = newRig(t, mk, cfg, 240<<10)
		dev = r.d
	} else {
		r, dev = newVolRig(t, mk, cfg, 240<<10, *vc, nil)
	}
	var tw bytes.Buffer
	r.s.TraceW = &tw
	determinismWorkload(t, r)
	r.fs.SyncImage()
	rep, err := ufs.Fsck(dev)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if !rep.Clean() {
		t.Fatalf("workload left an inconsistent file system: %v", rep.Problems)
	}
	return replay{tw.String(), r.eng.Stats, r.s.Now(), fmt.Sprintf("%+v", *rep)}
}

// firstDiff returns the first line index (1-based) where a and b
// differ, with the differing lines, for a readable failure message.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

// replayShapes is every device shape the determinism gate covers: the
// single drive, then the composed volumes.
var replayShapes = []struct {
	name string
	vc   *vol.Config
}{
	{"sd0", nil},
	{"raid0-x3", &vol.Config{Level: vol.RAID0, Members: 3}},
	{"raid1-x2", &vol.Config{Level: vol.RAID1, Members: 2}},
	{"raid5-x3", &vol.Config{Level: vol.RAID5, Members: 3, StripeKB: 16}}, // 32 KB rows: the row cut is live
}

// TestSameSeedReplaysByteIdentical is the determinism regression gate:
// two runs of the same workload from the same seed must make exactly
// the same scheduling decisions at exactly the same virtual times and
// leave exactly the same report text behind. Everything the simlint
// rules guard (map order, ambient time, raw goroutines) shows up here
// first as a trace divergence.
func TestSameSeedReplaysByteIdentical(t *testing.T) {
	requireSameReplay(t, traceRun(t, replayShapes[0].vc), traceRun(t, replayShapes[0].vc))
}

// TestSameSeedReplaysByteIdenticalOnVolumes extends the determinism
// gate over composed devices. A volume machine runs one service
// process per spindle plus parity read-modify-write phase chains in
// completion context, so any ordering leak in the volume layer (map
// iteration over members, unkeyed completion fan-in, ambient time)
// surfaces here as a trace divergence between same-seed runs.
func TestSameSeedReplaysByteIdenticalOnVolumes(t *testing.T) {
	for _, sh := range replayShapes[1:] {
		t.Run(sh.name, func(t *testing.T) {
			requireSameReplay(t, traceRun(t, sh.vc), traceRun(t, sh.vc))
		})
	}
}
