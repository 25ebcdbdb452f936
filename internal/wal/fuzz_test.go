package wal

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ufsclust/internal/disk"
)

// guardDev refuses, and remembers, an offline write that recovery has
// no business making: anything off the device, or touching the log
// region [base, base+sectors) other than the one-sector log superblock.
type guardDev struct {
	disk.Device
	base, sectors int64
	bad           string
}

func (g *guardDev) WriteImage(sector int64, data []byte) {
	end := sector + int64(len(data))/disk.SectorSize
	inLog := sector < g.base+g.sectors && end > g.base
	if sector < 0 || end > g.Geom().TotalBytes()/disk.SectorSize ||
		inLog && !(sector == g.base && len(data) == disk.SectorSize) {
		if g.bad == "" {
			g.bad = fmt.Sprintf("write of sectors [%d,%d) with the log at [%d,%d)", sector, end, g.base, g.base+g.sectors)
		}
		return
	}
	g.Device.WriteImage(sector, data)
}

// FuzzRecover feeds Recover an arbitrary log region. With reseal set the
// harness first re-signs the log superblock and the first transaction —
// commit record and checksum computed over whatever the input put in
// the descriptors — so mutated counts, home sectors and run lengths
// reach the replay path instead of dying at the checksum. Whatever the
// region says, Recover returns a report or an error, never panics,
// writes nothing into the log except its superblock sector nor off the
// device, and
// leaves a log whose second recovery replays nothing.
func FuzzRecover(f *testing.F) {
	const logBlocks = 4
	const sectors = logBlocks * blockSec
	r := newWalRig(f, logBlocks, Config{})
	region := func() []byte {
		buf := make([]byte, sectors*disk.SectorSize)
		r.d.ReadImage(testBase, buf)
		return buf
	}
	patch := func(buf []byte, off int, v uint64, width int) []byte {
		out := append([]byte(nil), buf...)
		if width == 4 {
			binary.LittleEndian.PutUint32(out[off:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(out[off:], v)
		}
		return out
	}
	const desc0 = disk.SectorSize // the first descriptor sector
	const entry0 = desc0 + descHdrBytes

	empty := region()
	f.Add(empty, false)
	for i := 0; i < 3; i++ {
		r.commit(f, map[int64]byte{int64(64 + 16*i): byte(0x10 + i)})
	}
	three := region()
	f.Add(three, false)
	// Torn tail: the third transaction lost its commit sector.
	f.Add(append(append([]byte(nil), three[:(1+2*(blockSec+2)+blockSec+1)*disk.SectorSize]...), make([]byte, disk.SectorSize)...), false)
	f.Add(patch(three, desc0+24, 0xffffffff, 4), false)
	f.Add(patch(three, desc0+24, 0xffffffff, 4), true)
	// A descriptor chain that runs off the region, and one that just fits
	// a second descriptor sector the log never wrote.
	f.Add(patch(three, desc0+24, sectors, 4), true)
	f.Add(patch(three, desc0+24, entriesPerDesc+1, 4), true)
	// A home sector moved elsewhere below the log and above it (both
	// replay), then runs inside the log region, straddling its start,
	// straddling its end and past the device's last sector (each ends
	// the scan as a torn tail), and entries whose count field is out of
	// range.
	dev := r.d.Geom().TotalBytes() / disk.SectorSize
	f.Add(patch(three, entry0, entry(1024, blockSec), 8), true)
	f.Add(patch(three, entry0, entry(testBase+sectors+1024, blockSec), 8), true)
	f.Add(patch(three, entry0, entry(testBase+8, blockSec), 8), true)
	f.Add(patch(three, entry0, entry(testBase-blockSec+1, blockSec), 8), true)
	f.Add(patch(three, entry0, entry(testBase+sectors-1, blockSec), 8), true)
	f.Add(patch(three, entry0, entry(dev-blockSec+1, blockSec), 8), true)
	f.Add(patch(three, entry0, 1<<63-1, 8), true)
	f.Add(patch(three, entry0, 1<<63, 8), true)
	// Sector counts of 0 and above a block; short runs that end exactly
	// at the log's start and begin exactly at its end (both replay), and
	// one that crosses its start.
	f.Add(patch(three, entry0, entry(64, 0), 8), true)
	f.Add(patch(three, entry0, entry(64, blockSec+1), 8), true)
	f.Add(patch(three, entry0, entry(testBase-4, 4), 8), true)
	f.Add(patch(three, entry0, entry(testBase+sectors, 4), 8), true)
	f.Add(patch(three, entry0, entry(testBase-2, 4), 8), true)
	// A fourth transaction of sub-block records, whole and torn.
	r.stage(f, map[int64][]byte{64: edit(mkBlock(0x10), 0x77, [2]int{100, 200}, [2]int{5000, 6000})})
	diffs := region()
	f.Add(diffs, false)
	f.Add(append(append([]byte(nil), diffs[:(1+3*(blockSec+2)+2)*disk.SectorSize]...), make([]byte, disk.SectorSize)...), false)
	blank := r.d.Snapshot()

	f.Fuzz(func(t *testing.T, log []byte, reseal bool) {
		r.d.Restore(blank)
		buf := make([]byte, sectors*disk.SectorSize)
		copy(buf, log)
		if reseal {
			binary.LittleEndian.PutUint64(buf[0:], logMagic)
			binary.LittleEndian.PutUint64(buf[16:], checksum(buf[:16]))
			first := buf[desc0:]
			n := int64(binary.LittleEndian.Uint32(first[24:]))
			nd := (n + entriesPerDesc - 1) / entriesPerDesc
			total := int64(0)
			for i := int64(0); n > 0 && 1+nd+1 <= sectors && i < n; i++ {
				_, count := unpackEntry(binary.LittleEndian.Uint64(first[(i/entriesPerDesc)*disk.SectorSize+descHdrBytes+(i%entriesPerDesc)*8:]))
				total += count
			}
			if txn := nd + total + 1; n > 0 && 1+txn <= sectors {
				for d := int64(0); d < nd; d++ {
					s := first[d*disk.SectorSize:]
					binary.LittleEndian.PutUint64(s[0:], descMagic)
					copy(s[8:16], buf[8:16]) // the epoch; this is transaction 0
					binary.LittleEndian.PutUint64(s[16:], 0)
					binary.LittleEndian.PutUint32(s[24:], uint32(n))
					binary.LittleEndian.PutUint32(s[28:], uint32(d*entriesPerDesc))
				}
				c := first[(txn-1)*disk.SectorSize:]
				binary.LittleEndian.PutUint64(c[0:], commitMagic)
				copy(c[8:16], buf[8:16])
				binary.LittleEndian.PutUint64(c[16:], 0)
				binary.LittleEndian.PutUint32(c[24:], uint32(n))
				binary.LittleEndian.PutUint64(c[32:], checksum(first[:(txn-1)*disk.SectorSize]))
			}
		}
		r.d.WriteImage(testBase, buf)

		g := &guardDev{Device: r.d, base: testBase, sectors: sectors}
		rep, err := Recover(g, testBase, sectors, testBlock)
		if g.bad != "" {
			t.Fatalf("recovery made a %s (report %v, err %v)", g.bad, rep, err)
		}
		if err != nil {
			return
		}
		again, err := Recover(g, testBase, sectors, testBlock)
		if err != nil || again.Txns != 0 || g.bad != "" {
			t.Fatalf("second recovery: %v, err %v, %s; first: %v", again, err, g.bad, rep)
		}
	})
}
