package ufsclust

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ufsclust/internal/detsort"
	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/vol"
)

// volMember is a small drive template for array machines: 200 cyl x
// 8 heads x 64 spt = 102400 sectors = 50 MB per member, so mkfs over a
// multi-member array stays quick.
func volMember() disk.Params {
	p := disk.DefaultParams()
	p.Geom = disk.UniformGeometry(200, 8, 64, 3600)
	return p
}

// TestUFSOnEveryVolumeLevel runs the full stack — engine, UFS, driver,
// volume, member disks — at every RAID level: write a 1 MB file, purge
// the cache, read it back, fsck the array, and (on redundant levels)
// check the redundancy invariant over the whole composed device.
func TestUFSOnEveryVolumeLevel(t *testing.T) {
	for _, cfg := range []vol.Config{
		{Level: vol.Concat, Members: 1},
		{Level: vol.Concat, Members: 2},
		{Level: vol.RAID0, Members: 3},
		{Level: vol.RAID1, Members: 2},
		{Level: vol.RAID5, Members: 4},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s-x%d", cfg.Level, cfg.Members), func(t *testing.T) {
			m, err := New(RunA(),
				WithSeed(3),
				WithDiskParams(volMember()),
				WithVolume(cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if m.Vol == nil || m.Dev != disk.Device(m.Vol) {
				t.Fatal("volume machine did not route Dev through the volume")
			}
			if m.Dev.Channels() != cfg.Members {
				t.Fatalf("device exposes %d channels, want %d", m.Dev.Channels(), cfg.Members)
			}
			data := make([]byte, 1<<20)
			for i := range data {
				data[i] = byte(i*13 + int(cfg.Level))
			}
			err = m.Run(func(p *sim.Proc) {
				f, err := m.Engine.Create(p, "/vol")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				f.Write(p, 0, data)
				f.Fsync(p)
				f.Purge(p)
				got := make([]byte, len(data))
				f.Read(p, 0, got)
				if !bytes.Equal(got, data) {
					t.Error("data corrupted through the array")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := m.Fsck()
			if err != nil || !rep.Clean() {
				t.Fatalf("fsck: %v %v", err, rep.Problems)
			}
			if cfg.Level == vol.RAID1 || cfg.Level == vol.RAID5 {
				if bad, first := m.Vol.CheckParity(); bad > 0 {
					t.Fatalf("%d bad redundancy spans after the run: %v", bad, first)
				}
			}
			// Striped and mirrored levels spread a 1 MB file across
			// every spindle; concat fills members in address order, so
			// only member 0 need be busy there.
			if cfg.Level != vol.Concat {
				for i, d := range m.Vol.Members() {
					if d.Stats.Writes == 0 {
						t.Fatalf("member sd%d of %s saw no writes", i, cfg.Level)
					}
				}
			}
		})
	}
}

// TestVolumeSnapshotBoot moves a populated RAID-1 array between
// machines via member snapshots — the volume counterpart of WithImage.
func TestVolumeSnapshotBoot(t *testing.T) {
	cfg := vol.Config{Level: vol.RAID1, Members: 2}
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	m, err := New(RunA(), WithSeed(5), WithDiskParams(volMember()), WithVolume(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Create(p, "/keep")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		f.Write(p, 0, data)
		f.Fsync(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	m.FS.SyncImage()
	imgs := m.Vol.Snapshot()

	m2, err := New(RunA(), WithSeed(6), WithDiskParams(volMember()),
		WithVolume(cfg), WithImage(imgs...))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	err = m2.Run(func(p *sim.Proc) {
		f, err := m2.Engine.Open(p, "/keep")
		if err != nil {
			t.Errorf("open on rebooted array: %v", err)
			return
		}
		got := make([]byte, len(data))
		f.Read(p, 0, got)
		if !bytes.Equal(got, data) {
			t.Error("file bytes diverged across the snapshot boot")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m2.Fsck()
	if err != nil || !rep.Clean() {
		t.Fatalf("fsck after snapshot boot: %v %v", err, rep.Problems)
	}
}

// TestBootImageCountMustMatchMembers pins the one boot-source rule:
// New boots from platters only when it is handed exactly one non-nil
// image per member drive, and fails otherwise. Each refused row used to
// return a machine that had silently run mkfs over the request (or, for
// the nil images, panicked).
func TestBootImageCountMustMatchMembers(t *testing.T) {
	cfg := vol.Config{Level: vol.RAID1, Members: 2}
	boot := func(opts ...Option) (*Machine, error) {
		return New(RunA(), append([]Option{WithDiskParams(volMember())}, opts...)...)
	}
	donor := func(opts ...Option) *Machine {
		m, err := boot(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		if err := m.Run(func(p *sim.Proc) {
			if _, err := m.Engine.Create(p, "/keep"); err != nil {
				t.Errorf("create: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		m.FS.SyncImage()
		return m
	}
	img := donor().Disk.Snapshot()
	imgs := donor(WithVolume(cfg)).Vol.Snapshot()

	for _, tc := range []struct {
		name    string
		opts    []Option
		ok      bool
		recover bool
	}{
		{"bare disk, two images to recover", []Option{WithRecovery(img, img)}, false, true},
		{"recovery without an image", []Option{WithRecovery()}, false, true},
		{"volume, one image", []Option{WithVolume(cfg), WithImage(img)}, false, false},
		{"bare disk, member images", []Option{WithImage(imgs...)}, false, false},
		{"volume, nil images", []Option{WithVolume(cfg), WithImage(nil, nil)}, false, false},
		{"bare disk, nil image", []Option{WithImage(nil)}, false, false},
		{"bare disk, one image", []Option{WithImage(img)}, true, false},
		{"bare disk, one image to recover", []Option{WithRecovery(img)}, true, true},
		{"volume, member images", []Option{WithVolume(cfg), WithImage(imgs...)}, true, false},
		{"volume, member images to recover", []Option{WithVolume(cfg), WithRecovery(imgs...)}, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := boot(tc.opts...)
			if !tc.ok {
				if err == nil {
					m.Close()
					t.Fatal("New accepted a boot source that does not fit the machine")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if got := m.RepairLog != nil; got != tc.recover {
				t.Errorf("RepairLog present = %v, want %v", got, tc.recover)
			}
			if err := m.Run(func(p *sim.Proc) {
				if _, err := m.Engine.Open(p, "/keep"); err != nil {
					t.Errorf("the donor's file is absent — the machine ran mkfs instead of booting the image: %v", err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRowCutTailNeverLostNeverRewritten is the property behind
// row-aligned write clustering on a RAID-5 machine: whatever part of a
// full window PutPage holds back for the next row, every block a write
// dirtied is pushed to the array exactly once per dirtying — by the
// next cluster, the sequentiality break, Fsync, Truncate or the pageout
// daemon, whichever comes first — and the platters end up equal to a
// flat shadow copy. The machine has 2 MB of memory and no free-behind,
// and the writer now and then wanders off to stream another file, so
// the daemon sweeps all of memory and launders the idle tail itself.
func TestRowCutTailNeverLostNeverRewritten(t *testing.T) {
	const (
		bsize   = 8192
		maxBlks = 512 // 4 MB
	)
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m, err := New(RunA(),
				WithSeed(seed),
				WithMemBytes(2<<20),
				WithFreeBehind(false),
				WithDiskParams(volMember()),
				WithVolume(vol.Config{Level: vol.RAID5, Members: 4}))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			rng := rand.New(rand.NewSource(seed))
			shadow := make([]byte, maxBlks*bsize)
			var blocks int64 // file size in blocks
			// pending holds the blocks dirtied and not yet pushed.
			pending := make(map[int64]bool)
			settled := func(what string) {
				if len(pending) > 0 {
					t.Errorf("%s left %d dirtied blocks unpushed: %v", what, len(pending), detsort.Keys(pending))
				}
			}
			err = m.Run(func(p *sim.Proc) {
				other, err := m.Engine.Create(p, "/other")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				other.Write(p, 0, shadow)
				other.Purge(p)
				f, err := m.Engine.Create(p, "/tail")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				m.Tel.Bus.Subscribe(func(ev telemetry.Event) {
					if ev.Kind != telemetry.EvClusterPush {
						return
					}
					for lbn := ev.LBN; lbn < ev.LBN+ev.Blocks; lbn++ {
						if !pending[lbn] {
							t.Errorf("block %d pushed at %v without having been dirtied since its last push", lbn, ev.T)
						}
						delete(pending, lbn)
					}
				})
				write := func(lbn, n int64) {
					if lbn+n > maxBlks {
						n = maxBlks - lbn
					}
					for i := int64(0); i < n; i++ {
						b := shadow[(lbn+i)*bsize : (lbn+i+1)*bsize]
						rng.Read(b)
						pending[lbn+i] = true
						if _, err := f.Write(p, (lbn+i)*bsize, b); err != nil {
							t.Errorf("write block %d: %v", lbn+i, err)
						}
					}
					if lbn+n > blocks {
						blocks = lbn + n
					}
				}
				cursor := int64(0)
				sink := make([]byte, 64*bsize)
				for op := 0; op < 60 && !t.Failed(); op++ {
					switch k := rng.Intn(10); {
					case k < 4: // sequential run at the cursor
						write(cursor, int64(rng.Intn(40)+1))
						cursor = blocks
					case k < 6 && blocks > 0: // backward seek, then overwrite from there
						cursor = rng.Int63n(blocks)
						write(cursor, int64(rng.Intn(20)+1))
					case k < 7:
						if err := f.Fsync(p); err != nil {
							t.Errorf("fsync: %v", err)
						}
						settled("fsync")
					case k < 8 && blocks > 0:
						blocks = rng.Int63n(blocks + 1)
						if err := f.Truncate(p, blocks*bsize); err != nil {
							t.Errorf("truncate: %v", err)
						}
						settled("truncate")
						cursor = blocks
					default: // leave the tail idle and stream the other file
						for off := int64(0); off < maxBlks*bsize; off += int64(len(sink)) {
							other.Read(p, off, sink)
						}
					}
				}
				if err := f.Purge(p); err != nil {
					t.Errorf("purge: %v", err)
				}
				settled("purge")
				got := make([]byte, blocks*bsize)
				if n, err := f.Read(p, 0, got); err != nil || int64(n) != blocks*bsize {
					t.Errorf("cold read: n=%d err=%v, want %d", n, err, blocks*bsize)
				} else if !bytes.Equal(got, shadow[:blocks*bsize]) {
					t.Error("platters diverge from the shadow copy")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.Engine.Stats.DaemonPushes == 0 {
				t.Error("the pageout daemon never laundered a dirty page; the property ran without memory pressure")
			}
			if bad, first := m.Vol.CheckParity(); bad > 0 {
				t.Errorf("%d bad parity spans: %v", bad, first)
			}
			if rep, err := m.Fsck(); err != nil || !rep.Clean() {
				t.Errorf("fsck: %v %v", err, rep)
			}
		})
	}
}
