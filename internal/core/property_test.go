package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

// Property: through the full stack (engine + VM + UFS + driver + disk),
// any interleaving of writes, reads, fsyncs, and cache purges behaves
// exactly like a flat byte array. This is the strongest data-integrity
// statement in the repository: clustering, read-ahead, delayed writes,
// free-behind, and the pageout daemon may reorder and batch I/O
// arbitrarily, but never its semantics.
func TestPropertyFileIsAFlatArray(t *testing.T) {
	for _, variant := range []struct {
		name string
		mk   ufs.MkfsOpts
		cfg  Config
	}{
		{"clustered", ufs.MkfsOpts{Rotdelay: 0, Maxcontig: 15}, ConfigA()},
		{"legacy", ufs.MkfsOpts{Rotdelay: 4, Maxcontig: 1}, ConfigD()},
	} {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			f := func(seed int64, opsRaw []uint32) bool {
				if len(opsRaw) > 30 {
					opsRaw = opsRaw[:30]
				}
				r := newRig(t, variant.mk, variant.cfg, 240<<10)
				rng := rand.New(rand.NewSource(seed))
				const maxSize = 1 << 20
				shadow := make([]byte, maxSize)
				var size int64
				ok := true
				r.run(t, func(p *sim.Proc) {
					f, err := r.eng.Create(p, "/prop")
					if err != nil {
						ok = false
						return
					}
					for _, op := range opsRaw {
						off := int64(op) % maxSize
						n := rng.Intn(48<<10) + 1
						if off+int64(n) > maxSize {
							n = int(maxSize - off)
						}
						switch op % 5 {
						case 0, 1, 2: // write
							data := make([]byte, n)
							rng.Read(data)
							if _, err := f.Write(p, off, data); err != nil {
								ok = false
								return
							}
							copy(shadow[off:], data)
							if end := off + int64(n); end > size {
								size = end
							}
						case 3: // read and compare
							if size == 0 {
								continue
							}
							roff := off % size
							got := make([]byte, n)
							m, err := f.Read(p, roff, got)
							if err != nil {
								ok = false
								return
							}
							want := int64(n)
							if roff+want > size {
								want = size - roff
							}
							if int64(m) != want || !bytes.Equal(got[:m], shadow[roff:roff+int64(m)]) {
								t.Logf("read at %d/%d mismatch", roff, size)
								ok = false
								return
							}
						case 4: // fsync or purge
							if op%2 == 0 {
								f.Fsync(p)
							} else {
								f.Purge(p)
							}
						}
					}
					// Final full verification, cold.
					f.Purge(p)
					got := make([]byte, size)
					m, err := f.Read(p, 0, got)
					if err != nil || int64(m) != size {
						ok = false
						return
					}
					if !bytes.Equal(got, shadow[:size]) {
						t.Log("final cold read mismatch")
						ok = false
					}
				})
				if !ok {
					return false
				}
				r.fs.SyncImage()
				rep, err := ufs.Fsck(r.d)
				if err != nil || !rep.Clean() {
					t.Logf("fsck: %v %v", err, rep.Problems)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashLosesOnlyUnsyncedData models the durability contract the
// paper's footnote insists on ("a promise was made that the data was
// safe"): after a crash — all in-memory state discarded — fsynced data
// is intact, unsynced delayed writes may be lost, and the file system
// is structurally consistent.
func TestCrashLosesOnlyUnsyncedData(t *testing.T) {
	mk, cfg := clusteredOpts()
	r := newRig(t, mk, cfg, 0)
	durable := make([]byte, 256<<10)
	pattern(durable, 21)
	volatileData := make([]byte, 128<<10)
	pattern(volatileData, 22)
	r.run(t, func(p *sim.Proc) {
		f, err := r.eng.Create(p, "/durable")
		if err != nil {
			t.Error(err)
			return
		}
		f.Write(p, 0, durable)
		f.Fsync(p) // promised safe
		// Metadata made durable too (size, block pointers).
		r.fs.Sync(p)

		g, err := r.eng.Create(p, "/volatile")
		if err != nil {
			t.Error(err)
			return
		}
		r.fs.Sync(p)                // name and metadata durable...
		g.Write(p, 0, volatileData) // ...but the data is delayed, never synced
	})

	// CRASH: throw away every in-memory structure; remount from the
	// platter. (Metadata buffers and dirty pages die with the machine.)
	rep, err := ufs.Fsck(r.d)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Errorf("post-crash fsck: %s", p)
	}

	// A fresh machine boots from a copy of the platter.
	s2 := sim.New(99)
	t.Cleanup(s2.Close)
	var img bytes.Buffer
	if err := r.d.DumpImage(&img); err != nil {
		t.Fatal(err)
	}
	dp := disk.DefaultParams()
	d2 := disk.New(s2, "d1", dp)
	if err := d2.LoadImage(&img); err != nil {
		t.Fatal(err)
	}
	dr2 := driver.New(s2, d2, nil, driver.DefaultConfig())
	fs2, err := ufs.Mount(s2, nil, dr2, ufs.MountOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Spawn("check", func(p *sim.Proc) {
		ip, err := fs2.Namei(p, "/durable")
		if err != nil {
			t.Errorf("durable file lost: %v", err)
			return
		}
		if ip.D.Size != int64(len(durable)) {
			t.Errorf("durable size = %d, want %d", ip.D.Size, len(durable))
		}
		// Read the durable bytes straight off the platter.
		sb := fs2.SB
		buf := make([]byte, sb.Bsize)
		for lbn := int64(0); lbn*int64(sb.Bsize) < ip.D.Size; lbn++ {
			fsbn, _, err := fs2.Bmap(p, ip, lbn)
			if err != nil || fsbn == 0 {
				t.Errorf("durable block %d missing after crash", lbn)
				return
			}
			d2.ReadImage(sb.FsbToDb(fsbn), buf)
			end := ip.D.Size - lbn*int64(sb.Bsize)
			if end > int64(sb.Bsize) {
				end = int64(sb.Bsize)
			}
			if !bytes.Equal(buf[:end], durable[lbn*int64(sb.Bsize):lbn*int64(sb.Bsize)+end]) {
				t.Errorf("durable block %d corrupted after crash", lbn)
				return
			}
		}
		// The volatile file exists (its create was synchronous) but its
		// unsynced data did not reach the disk: size is still zero.
		vip, err := fs2.Namei(p, "/volatile")
		if err != nil {
			t.Errorf("volatile file's name lost: %v", err)
			return
		}
		if vip.D.Size != 0 {
			t.Errorf("volatile file claims %d bytes after crash; delayed data should be lost", vip.D.Size)
		}
	})
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: a file's last block — the only one FFS keeps in fragments —
// behaves like a flat array too. Files inside the direct range take
// appends, overwrites, writes past EOF, truncates to sizes that are not
// block multiples and Purges, and now and then a 1000-byte neighbour
// lands behind some tail so it must move to grow. After every step the
// file reads back as its shadow copy and Fsck finds the image clean; a
// coin decides whether the read-back stays cached, so tails grow both
// cached and cold.
func TestPropertyLastBlockIsAFlatArray(t *testing.T) {
	for v, opts := range []func() (ufs.MkfsOpts, Config){clusteredOpts, legacyOpts} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", [2]string{"clustered", "legacy"}[v], seed), func(t *testing.T) {
				mk, cfg := opts()
				r := newRig(t, mk, cfg, 240<<10)
				rng := rand.New(rand.NewSource(seed))
				r.run(t, func(p *sim.Proc) {
					var files [3]*File
					var shadow [3][]byte
					for i := range files {
						files[i], _ = r.eng.Create(p, fmt.Sprintf("/f%d", i))
					}
					for step := 0; step < 60; step++ {
						i := rng.Intn(len(files))
						f, size := files[i], int64(len(shadow[i]))
						op, err := "purge", error(nil)
						switch k := rng.Intn(10); {
						case k < 6: // append, overwrite or write past EOF
							off := [3]int64{size, rng.Int63n(size + 1), size + rng.Int63n(20000)}[k%3]
							data := make([]byte, rng.Intn(5000)+1)
							if off+int64(len(data)) > 11*8192 { // every byte in DB[0..10]
								continue
							}
							rng.Read(data)
							op = fmt.Sprintf("write %d bytes at %d", len(data), off)
							_, err = f.Write(p, off, data)
							if end := off + int64(len(data)); end > size {
								shadow[i] = append(shadow[i], make([]byte, end-size)...)
							}
							copy(shadow[i][off:], data)
						case k < 8: // truncate inside a block
							to := rng.Int63n(size + 1)
							if to%8192 == 0 {
								continue
							}
							op, err = fmt.Sprintf("truncate %d to %d", size, to), f.Truncate(p, to)
							shadow[i] = shadow[i][:to]
						case k < 9:
							err = f.Purge(p)
						default:
							op = "create a neighbour"
							g, _ := r.eng.Create(p, fmt.Sprintf("/n%d", step))
							_, err = g.Write(p, 0, make([]byte, 1000))
						}
						got := make([]byte, len(shadow[i])+1)
						n, rerr := f.Read(p, 0, got)
						if err != nil || rerr != nil || !bytes.Equal(got[:n], shadow[i]) {
							t.Fatalf("step %d, /f%d after %s (%v, %v): read %d of %d bytes, contents differ from the shadow copy",
								step, i, op, err, rerr, n, len(shadow[i]))
						}
						if rng.Intn(2) == 0 {
							f.Purge(p)
						}
						r.fs.SyncImage()
						if rep, err := ufs.Fsck(r.d); err != nil || !rep.Clean() {
							t.Fatalf("step %d, /f%d after %s: fsck: %v %v", step, i, op, err, rep.Problems)
						}
					}
				})
			})
		}
	}
}
