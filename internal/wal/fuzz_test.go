package wal

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ufsclust/internal/disk"
)

// guardDev refuses, and remembers, an offline write that recovery has
// no business making: anything touching the log region or beyond it
// other than the one-sector log superblock.
type guardDev struct {
	disk.Device
	base int64
	bad  string
}

func (g *guardDev) WriteImage(sector int64, data []byte) {
	end := sector + int64(len(data))/disk.SectorSize
	if sector < 0 || (end > g.base && !(sector == g.base && len(data) == disk.SectorSize)) {
		if g.bad == "" {
			g.bad = fmt.Sprintf("write of sectors [%d,%d) with the log at %d", sector, end, g.base)
		}
		return
	}
	g.Device.WriteImage(sector, data)
}

// FuzzRecover feeds Recover an arbitrary log region. With reseal set the
// harness first re-signs the log superblock and the first transaction —
// commit record and checksum computed over whatever the input put in
// the descriptors — so mutated counts and home addresses reach the
// replay path instead of dying at the checksum. Whatever the region
// says, Recover returns a report or an error, never panics, writes
// nothing at or above the log except its superblock sector, and leaves
// a log whose second recovery replays nothing.
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
	f.Add(patch(three, desc0+24, addrsPerDesc+1, 4), true)
	// A home address moved elsewhere below the log (replays), then ones
	// inside the log region, straddling its start, and wrapping int64.
	f.Add(patch(three, desc0+descHdrBytes, 1024, 8), true)
	f.Add(patch(three, desc0+descHdrBytes, testBase+8, 8), true)
	f.Add(patch(three, desc0+descHdrBytes, testBase-blockSec+1, 8), true)
	f.Add(patch(three, desc0+descHdrBytes, 1<<63-1, 8), true)
	f.Add(patch(three, desc0+descHdrBytes, 1<<63, 8), true) // negative
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
			nd := (n + addrsPerDesc - 1) / addrsPerDesc
			if txn := nd + n*blockSec + 1; n > 0 && 1+txn <= sectors {
				for d := int64(0); d < nd; d++ {
					s := first[d*disk.SectorSize:]
					binary.LittleEndian.PutUint64(s[0:], descMagic)
					copy(s[8:16], buf[8:16]) // the epoch; this is transaction 0
					binary.LittleEndian.PutUint64(s[16:], 0)
					binary.LittleEndian.PutUint32(s[24:], uint32(n))
					binary.LittleEndian.PutUint32(s[28:], uint32(d*addrsPerDesc))
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

		g := &guardDev{Device: r.d, base: testBase}
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
