package core

import (
	"bytes"
	"fmt"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vol"
)

// noUnit is a device whose write-unit hint is masked: everything above
// it must behave exactly as it did before the hint existed.
type noUnit struct{ disk.Device }

func (noUnit) WriteUnit() int { return 0 }

// dataPush is one cluster_push paired with the driver request it
// became (Strategy runs right after the emit, so the next write
// io_queue is the push's own).
type dataPush struct {
	lbn, blocks int64
	sector      int64
	bytes       int64
}

// rowCut is what one rowCutRun leaves behind: the rig and its volume,
// the measured event stream, the data pushes in order, and the volume's
// counters over the writes and the fsync alone (Create's synchronous
// metadata writes are partial rows by nature, not the data path's
// doing).
type rowCut struct {
	r      *rig
	vl     *vol.Volume
	stream []byte
	pushes []dataPush
	st     vol.Stats
}

// rowCutRun writes a file of size bytes sequentially on a RAID-5 rig,
// 8 KB at a time, then fsyncs — 3 MB takes it past the first indirect
// block and one cylinder-group switch.
func rowCutRun(t *testing.T, vc vol.Config, size int64, wrap func(disk.Device) disk.Device) rowCut {
	t.Helper()
	mk, cfg := clusteredOpts()
	r, vl := newVolRig(t, mk, cfg, 240<<10, vc, wrap)
	tel := telemetry.New()
	vl.AttachTelemetry(tel)
	r.dr.AttachTelemetry(tel)
	r.eng.AttachTelemetry(tel)
	var stream bytes.Buffer
	tel.Bus.Subscribe(telemetry.NewJSONL(&stream).Write)
	var pushes []dataPush
	open := false
	tel.Bus.Subscribe(func(ev telemetry.Event) {
		switch {
		case ev.Kind == telemetry.EvClusterPush:
			pushes = append(pushes, dataPush{lbn: ev.LBN, blocks: ev.Blocks})
			open = true
		case ev.Kind == telemetry.EvIOQueue && ev.Write && open:
			pushes[len(pushes)-1].sector, pushes[len(pushes)-1].bytes = ev.Sector, ev.Bytes
			open = false
		}
	})
	var pre vol.Stats
	r.run(t, func(p *sim.Proc) {
		f, err := r.eng.Create(p, "/rows")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		pre = vl.Stats
		buf := make([]byte, 8192)
		for off := int64(0); off < size; off += 8192 {
			pattern(buf, off)
			if _, err := f.Write(p, off, buf); err != nil {
				t.Errorf("write @%d: %v", off, err)
				return
			}
		}
		if err := f.Fsync(p); err != nil {
			t.Errorf("fsync: %v", err)
		}
	})
	st := vl.Stats
	st.FullStripeWrites -= pre.FullStripeWrites
	st.ParityRMWRows -= pre.ParityRMWRows
	st.DegradedWrites -= pre.DegradedWrites
	return rowCut{r: r, vl: vl, stream: stream.Bytes(), pushes: pushes, st: st}
}

// TestRowCutHonoursOrIgnoresTheHint sweeps RAID-5 shapes. Where the
// row is a whole number of blocks no larger than the 120 KB cluster,
// no physically contiguous stream of pushes may ever be broken off a
// row boundary: a push that ends mid-row is followed by one that
// starts somewhere else (an indirect block or a cylinder-group switch
// interrupted the run), or is the fsync's. Everywhere else the hint
// must be ignored outright — the event stream equals, byte for byte,
// the same array's with the hint masked to 0, which is the code path
// every single-disk golden pins.
func TestRowCutHonoursOrIgnoresTheHint(t *testing.T) {
	for _, stripeKB := range []int{4, 16, 32, 64} {
		for _, members := range []int{3, 4, 5} {
			vc := vol.Config{Level: vol.RAID5, Members: members, StripeKB: stripeKB}
			rowKB := (members - 1) * stripeKB
			honoured := rowKB%8 == 0 && rowKB <= 120
			t.Run(fmt.Sprintf("%dKBx%d", stripeKB, members), func(t *testing.T) {
				rc := rowCutRun(t, vc, 3<<20, nil)
				r, vl, pushes, st := rc.r, rc.vl, rc.pushes, rc.st
				if got := r.fs.RowBlocks() > 0; got != honoured {
					t.Fatalf("RowBlocks() = %d on a %d KB row, honoured should be %v", r.fs.RowBlocks(), rowKB, honoured)
				}
				if bad, first := vl.CheckParity(); bad > 0 {
					t.Fatalf("%d bad parity spans: %v", bad, first)
				}
				if !honoured {
					masked := rowCutRun(t, vc, 3<<20, func(d disk.Device) disk.Device { return noUnit{d} })
					if !bytes.Equal(rc.stream, masked.stream) {
						t.Fatalf("ignored hint still changed the run: %s", firstDiff(string(rc.stream), string(masked.stream)))
					}
					return
				}
				unit := int64(vl.WriteUnit())
				cut := 0
				for i, ps := range pushes[:len(pushes)-1] {
					end := ps.sector + ps.bytes/disk.SectorSize
					if end%unit == 0 {
						cut++
						continue
					}
					if next := pushes[i+1]; next.sector == end {
						t.Errorf("push %d (lbn %d+%d) ends at sector %d, %d sectors into a row, and push %d continues there",
							i, ps.lbn, ps.blocks, end, end%unit, i+1)
					}
				}
				if cut < len(pushes)/2 {
					t.Errorf("only %d of %d pushes end on a row boundary", cut, len(pushes))
				}
				t.Logf("%d pushes, %d row-aligned; %d full rows, %d RMW rows", len(pushes), cut, st.FullStripeWrites, st.ParityRMWRows)
			})
		}
	}
}

// TestRowCutRestartsAfterCgSwitchOnARow checks the allocator half: when
// a large file moves to a new cylinder group on a device with a write
// unit, the new run's first block sits on a row boundary.
func TestRowCutRestartsAfterCgSwitchOnARow(t *testing.T) {
	r := rowCutRun(t, vol.Config{Level: vol.RAID5, Members: 4}, 3<<20, nil).r
	row := int32(r.fs.RowBlocks())
	if row == 0 {
		t.Fatal("4 x 32 KB RAID-5 row not honoured")
	}
	r.run(t, func(p *sim.Proc) {
		f, err := r.eng.Open(p, "/rows")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		lbn := int64(r.fs.SB.Maxbpg)
		prev, _, _ := r.fs.Bmap(p, f.Inode(), lbn-1)
		fsbn, _, err := r.fs.Bmap(p, f.Inode(), lbn)
		if err != nil || fsbn == 0 {
			t.Errorf("bmap %d: %d %v", lbn, fsbn, err)
			return
		}
		if r.fs.SB.DtoCg(prev) == r.fs.SB.DtoCg(fsbn) {
			t.Errorf("lbn %d did not switch cylinder groups (%d -> %d)", lbn, prev, fsbn)
		}
		if blk := fsbn / r.fs.SB.Frag; blk%row != 0 {
			t.Errorf("first block after the switch is device block %d, %d past a %d-block row boundary", blk, blk%row, row)
		}
	})
}

// TestRowCutSequentialWriteOnRAID5 is the engine-level acceptance test:
// a 2 MB sequential write and an fsync on a 4-member array go down as
// whole rows, and the held-back tail is neither stranded in memory nor
// missing from the platters. With a member dead from boot the same
// whole rows take the degraded branch instead of the full-stripe one.
func TestRowCutSequentialWriteOnRAID5(t *testing.T) {
	const size = 2 << 20
	for _, degraded := range [][]int{nil, {1}} {
		vc := vol.Config{Level: vol.RAID5, Members: 4, Degraded: degraded}
		t.Run(fmt.Sprintf("degraded=%v", degraded), func(t *testing.T) {
			rc := rowCutRun(t, vc, size, nil)
			r, vl, pushes, st := rc.r, rc.vl, rc.pushes, rc.st
			if degraded == nil {
				if ratio := float64(st.FullStripeWrites) / float64(st.FullStripeWrites+st.ParityRMWRows); ratio < 0.8 {
					t.Errorf("full-stripe ratio %.2f (%d full, %d RMW rows), want >= 0.8", ratio, st.FullStripeWrites, st.ParityRMWRows)
				}
			} else if st.FullStripeWrites != 0 || st.DegradedWrites < size/(96<<10)-2 {
				t.Errorf("degraded array: %d full-stripe and %d degraded writes, want 0 and ~%d", st.FullStripeWrites, st.DegradedWrites, size/(96<<10))
			}
			var blocks int64
			for _, ps := range pushes {
				blocks += ps.blocks
			}
			if blocks != size/8192 {
				t.Errorf("pushed %d blocks, wrote %d", blocks, size/8192)
			}
			r.run(t, func(p *sim.Proc) {
				f, err := r.eng.Open(p, "/rows")
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if ip := f.Inode(); ip.Delaylen != 0 {
					t.Errorf("fsync left a delayed window of %d bytes at %d", ip.Delaylen, ip.Delayoff)
				}
				for _, pg := range r.v.ObjectPages(f.vn) {
					if pg.Dirty() {
						t.Errorf("page at %d still dirty after fsync", pg.Off)
					}
				}
				f.Purge(p)
				got, want := make([]byte, 8192), make([]byte, 8192)
				for off := int64(0); off < size; off += 8192 {
					pattern(want, off)
					if _, err := f.Read(p, off, got); err != nil || !bytes.Equal(got, want) {
						t.Errorf("cold read @%d: err %v, data intact %v", off, err, bytes.Equal(got, want))
						return
					}
				}
			})
			if degraded == nil {
				if bad, first := vl.CheckParity(); bad > 0 {
					t.Errorf("%d bad parity spans: %v", bad, first)
				}
			}
			r.fs.SyncImage()
			if rep, err := ufs.Fsck(vl); err != nil || !rep.Clean() {
				t.Errorf("fsck: %v %v", err, rep)
			}
		})
	}
}
