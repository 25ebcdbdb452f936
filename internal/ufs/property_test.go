package ufs

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ufsclust/internal/sim"
)

// Property: any sequence of block/fragment allocations and frees leaves
// the bitmaps, per-group counters, and superblock totals consistent
// (verified by fsck), and never hands out overlapping space.
func TestPropertyAllocatorConsistency(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		if len(opsRaw) > 60 {
			opsRaw = opsRaw[:60]
		}
		r := newRig(t, MkfsOpts{})
		rng := rand.New(rand.NewSource(seed))
		type hold struct {
			fsbn  int32
			frags int32
		}
		var held []hold
		owned := make(map[int32]bool) // fragment -> held by us
		ok := true
		r.run(t, func(p *sim.Proc) {
			ip, err := r.fs.Create(p, "/propfile")
			if err != nil {
				ok = false
				return
			}
			for _, op := range opsRaw {
				switch {
				case op%3 != 0 || len(held) == 0: // allocate
					var h hold
					if op%2 == 0 {
						fsbn, err := r.fs.AllocBlock(p, ip, int32(rng.Intn(int(r.sb.Size))))
						if err != nil {
							continue // ENOSPC acceptable
						}
						h = hold{fsbn, r.sb.Frag}
					} else {
						n := int32(rng.Intn(int(r.sb.Frag)-1)) + 1
						fsbn, err := r.fs.AllocFrags(p, ip, int32(rng.Intn(int(r.sb.Size))), n)
						if err != nil {
							continue
						}
						h = hold{fsbn, n}
					}
					for i := int32(0); i < h.frags; i++ {
						if owned[h.fsbn+i] {
							t.Logf("fragment %d double-allocated", h.fsbn+i)
							ok = false
							return
						}
						owned[h.fsbn+i] = true
					}
					held = append(held, h)
				default: // free a random holding
					i := rng.Intn(len(held))
					h := held[i]
					if err := r.fs.FreeFrags(p, h.fsbn, h.frags); err != nil {
						ok = false
						return
					}
					for j := int32(0); j < h.frags; j++ {
						delete(owned, h.fsbn+j)
					}
					ip.D.Blocks -= h.frags
					ip.MarkDirty()
					held[i] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			}
			// Free the rest so fsck sees a consistent file (the test
			// file itself holds no blocks).
			for _, h := range held {
				if err := r.fs.FreeFrags(p, h.fsbn, h.frags); err != nil {
					ok = false
					return
				}
				ip.D.Blocks -= h.frags
			}
			ip.MarkDirty()
		})
		if !ok {
			return false
		}
		rep := r.fsck(t)
		if !rep.Clean() {
			t.Logf("fsck: %v", rep.Problems[:min(len(rep.Problems), 5)])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: a directory behaves as a map under any sequence of
// create/remove/lookup operations.
func TestPropertyDirectoryIsAMap(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		if len(opsRaw) > 80 {
			opsRaw = opsRaw[:80]
		}
		r := newRig(t, MkfsOpts{})
		rng := rand.New(rand.NewSource(seed))
		shadow := make(map[string]bool)
		names := make([]string, 40)
		for i := range names {
			names[i] = fmt.Sprintf("file-%d-%d", i, rng.Intn(10))
		}
		ok := true
		r.run(t, func(p *sim.Proc) {
			for _, op := range opsRaw {
				name := names[int(op)%len(names)]
				switch op % 3 {
				case 0: // create
					_, err := r.fs.Create(p, "/"+name)
					if shadow[name] && err != ErrExists {
						t.Logf("create existing %q: %v", name, err)
						ok = false
						return
					}
					if !shadow[name] {
						if err != nil {
							ok = false
							return
						}
						shadow[name] = true
					}
				case 1: // remove
					err := r.fs.Remove(p, "/"+name)
					if shadow[name] && err != nil {
						ok = false
						return
					}
					if !shadow[name] && err != ErrNotFound {
						ok = false
						return
					}
					delete(shadow, name)
				case 2: // lookup
					_, err := r.fs.Namei(p, "/"+name)
					if shadow[name] != (err == nil) {
						t.Logf("lookup %q: shadow=%v err=%v", name, shadow[name], err)
						ok = false
						return
					}
				}
			}
			// Final: directory listing matches the shadow exactly.
			root, _ := r.fs.Iget(p, RootIno)
			ents, err := r.fs.ReadDir(p, root)
			if err != nil {
				ok = false
				return
			}
			live := 0
			for _, e := range ents {
				if e.Name == "." || e.Name == ".." {
					continue
				}
				if !shadow[e.Name] {
					t.Logf("ghost entry %q", e.Name)
					ok = false
					return
				}
				live++
			}
			if live != len(shadow) {
				t.Logf("entry count %d != shadow %d", live, len(shadow))
				ok = false
			}
		})
		if !ok {
			return false
		}
		return r.fsck(t).Clean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: grow/truncate sequences keep di_blocks exact and fsck clean,
// on a file that starts sparse — a seeded subset of blocks in the direct,
// single- and double-indirect ranges — and then grows densely. Truncate
// walks the pointers that exist: it pays at most one Bmap per direct slot,
// however many logical blocks it drops.
func TestPropertyGrowTruncate(t *testing.T) {
	f := func(seed int64, sizesRaw []uint16) bool {
		if len(sizesRaw) > 12 {
			sizesRaw = sizesRaw[:12]
		}
		r := newRig(t, MkfsOpts{})
		rng := rand.New(rand.NewSource(seed))
		bsize := int64(r.sb.Bsize)
		nindir := r.sb.NindirPerBlock()
		ok := true
		check := func(what string, err error) bool {
			if err != nil {
				t.Logf("%s: %v", what, err)
				ok = false
			}
			return err == nil
		}
		r.run(t, func(p *sim.Proc) {
			ip, err := r.fs.Create(p, "/gt")
			if !check("create", err) {
				return
			}
			for _, rg := range [][2]int64{{0, NDADDR}, {NDADDR, nindir}, {NDADDR + nindir, 3 * nindir}} {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					lbn := rg[0] + rng.Int63n(rg[1])
					if _, err := r.fs.BmapAlloc(p, ip, lbn, int(bsize)); !check("sparse alloc", err) {
						return
					}
					ip.D.Size = max(ip.D.Size, (lbn+1)*bsize)
				}
			}
			ip.MarkDirty()
			for _, sz := range sizesRaw {
				target := int64(sz) * 97 // up to ~6.3MB
				if target > ip.D.Size {
					// Grow by allocating every block (no holes).
					for off := ip.D.Size / bsize * bsize; off < target; off += bsize {
						n := min(bsize, target-off)
						if _, err := r.fs.BmapAlloc(p, ip, off/bsize, int(n)); err != nil {
							ok = err == ErrNoSpace
							return
						}
						ip.D.Size = off + n
					}
					ip.D.Size = target
					ip.MarkDirty()
					continue
				}
				bmaps := r.fs.BmapCalls
				if !check("truncate", r.fs.Truncate(p, ip, target)) {
					return
				}
				if n := r.fs.BmapCalls - bmaps; n > NDADDR {
					t.Logf("truncate to %d made %d Bmap calls, want at most %d", target, n, NDADDR)
					ok = false
					return
				}
				r.fs.SyncImage()
				rep, err := Fsck(r.d)
				if !check("fsck", err) {
					return
				}
				if !rep.Clean() {
					t.Logf("after truncate to %d: %v", target, rep.Problems[:min(len(rep.Problems), 5)])
					ok = false
					return
				}
			}
		})
		if !ok {
			return false
		}
		return r.fsck(t).Clean()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
