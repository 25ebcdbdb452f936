package vol_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
)

// TestTimedAndOfflinePathsLeaveSamePlatters applies one seeded sequence
// of writes to a volume through Submit and to its twin through
// WriteImage, then requires every member's platter to be byte-equal and
// a timed read of the whole volume to match an offline one. The shadow
// tests compare logical contents only; this pins the member transfers,
// parity and mirror sides included, to be one statement for both paths.
func TestTimedAndOfflinePathsLeaveSamePlatters(t *testing.T) {
	for _, cfg := range []vol.Config{
		{Level: vol.Concat, Members: 2},
		{Level: vol.RAID0, Members: 3, StripeKB: 8},
		{Level: vol.RAID1, Members: 2},
		{Level: vol.RAID1, Members: 2, Degraded: []int{1}},
		{Level: vol.RAID5, Members: 3, StripeKB: 8},
		{Level: vol.RAID5, Members: 4, StripeKB: 8, Degraded: []int{1}},
	} {
		t.Run(fmt.Sprintf("%s-x%d-degraded%v", cfg.Level, cfg.Members, cfg.Degraded), func(t *testing.T) {
			sa, a := newVol(t, 43, cfg)
			_, b := newVol(t, 43, cfg)
			total := a.Geom().TotalSectors()
			const chunk = 16 // sectors in an 8 KB stripe unit
			nm := int64(cfg.Members)
			rowSpan := chunk * nm
			if cfg.Level == vol.RAID5 {
				rowSpan = chunk * (nm - 1)
			}
			rows := total / rowSpan
			rnd := rand.New(rand.NewSource(47))
			type write struct{ sec, n int64 }
			var writes []write
			for op := 0; op < 160; op++ {
				var w write
				switch op % 4 {
				case 0: // inside one stripe unit
					w.n = 1 + rnd.Int63n(chunk-1)
					w.sec = rnd.Int63n(total - w.n + 1)
				case 1: // straddling a row boundary
					w.sec = (1+rnd.Int63n(rows-2))*rowSpan - 1 - rnd.Int63n(chunk)
					w.n = 2 + rnd.Int63n(2*chunk)
				case 2: // one or two whole rows
					w.n = rowSpan * (1 + rnd.Int63n(2))
					w.sec = rnd.Int63n(rows-1) * rowSpan
				case 3: // a partial row whose parity member is sd1 (dead on the degraded RAID-5)
					row := rnd.Int63n(rows/nm)*nm + nm - 2
					w.sec = row*rowSpan + rnd.Int63n(rowSpan/2)
					w.n = 1 + rnd.Int63n(rowSpan/2)
				}
				writes = append(writes, w)
			}
			run(t, sa, func(p *sim.Proc) {
				for i, w := range writes {
					buf := make([]byte, w.n*disk.SectorSize)
					fill(buf, int64(i))
					if err := volIO(p, a, w.sec, buf, true); err != nil {
						t.Errorf("write %d [%d,%d): %v", i, w.sec, w.sec+w.n, err)
						return
					}
				}
			})
			for i, w := range writes {
				buf := make([]byte, w.n*disk.SectorSize)
				fill(buf, int64(i))
				b.WriteImage(w.sec, buf)
			}

			msize := a.Members()[0].Geom().TotalSectors()
			pa := make([]byte, msize*disk.SectorSize)
			pb := make([]byte, len(pa))
			for m := range a.Members() {
				a.Members()[m].ReadImage(0, pa)
				b.Members()[m].ReadImage(0, pb)
				if !equal(pa, pb) {
					t.Fatalf("sd%d: timed and offline writes left different platters", m)
				}
			}

			timed := make([]byte, total*disk.SectorSize)
			run(t, sa, func(p *sim.Proc) {
				if err := volIO(p, a, 0, timed, false); err != nil {
					t.Errorf("timed read: %v", err)
				}
			})
			offline := make([]byte, len(timed))
			b.ReadImage(0, offline)
			if !equal(timed, offline) {
				t.Fatal("timed and offline reads of the whole volume disagree")
			}
		})
	}
}
