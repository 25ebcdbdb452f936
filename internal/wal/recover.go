package wal

import (
	"encoding/binary"
	"fmt"

	"ufsclust/internal/disk"
)

// RecoverReport is the accounting of one log replay. SectorsRead is
// the recovery cost the test battery bounds: it can never exceed the
// log region size, however large the image is, because recovery only
// ever reads log sectors.
type RecoverReport struct {
	Txns     int    // transactions replayed
	Blocks   int    // metadata blocks written home
	TornTail bool   // scanning stopped at a torn (partially written) transaction
	Epoch    uint64 // log epoch that was replayed

	SectorsRead    int64 // log sectors read during the scan
	SectorsWritten int64 // image sectors written during replay (incl. the log reset)
	LogSectors     int64 // region size, the structural bound on SectorsRead
}

// String formats the report for harness output.
func (r *RecoverReport) String() string {
	tail := "clean tail"
	if r.TornTail {
		tail = "torn tail discarded"
	}
	return fmt.Sprintf("replayed %d txns (%d blocks), %s; read %d/%d log sectors, wrote %d",
		r.Txns, r.Blocks, tail, r.SectorsRead, r.LogSectors, r.SectorsWritten)
}

// Recover replays the journal at [base, base+sectors) over d's image:
// the committed transaction prefix is applied in order, the first
// transaction that fails to parse or checksum ends the scan (torn
// tail — all later transactions may depend on it), and the log is
// reset to a fresh epoch so the following mount starts empty. It runs
// offline (boot time, no simulated time); the report carries the
// sector accounting.
func Recover(d disk.Device, base, sectors int64, blockBytes int) (*RecoverReport, error) {
	rep := &RecoverReport{LogSectors: sectors}
	readSectors := func(off, n int64) []byte {
		buf := make([]byte, n*disk.SectorSize)
		d.ReadImage(base+off, buf)
		rep.SectorsRead += n
		return buf
	}

	sbuf := readSectors(0, 1)
	if binary.LittleEndian.Uint64(sbuf[0:]) != logMagic {
		return nil, fmt.Errorf("wal: bad log superblock magic %#x", binary.LittleEndian.Uint64(sbuf[0:]))
	}
	if binary.LittleEndian.Uint64(sbuf[16:]) != checksum(sbuf[:16]) {
		return nil, fmt.Errorf("wal: log superblock checksum mismatch")
	}
	epoch := binary.LittleEndian.Uint64(sbuf[8:])
	rep.Epoch = epoch

	blockSectors := int64(blockBytes / disk.SectorSize)
	pos := int64(1)
	index := uint64(0)
scan:
	for pos < sectors {
		// Descriptor chain. The first sector tells us the shape; a
		// mismatch here is the normal end of the log (old-epoch or
		// never-written sectors), not a torn transaction.
		first := readSectors(pos, 1)
		if binary.LittleEndian.Uint64(first[0:]) != descMagic ||
			binary.LittleEndian.Uint64(first[8:]) != epoch ||
			binary.LittleEndian.Uint64(first[16:]) != index ||
			binary.LittleEndian.Uint32(first[28:]) != 0 {
			break
		}
		n := int(binary.LittleEndian.Uint32(first[24:]))
		if n <= 0 {
			rep.TornTail = true
			break
		}
		nd := (n + addrsPerDesc - 1) / addrsPerDesc
		txn := int64(nd) + int64(n)*blockSectors + 1
		if pos+txn > sectors {
			rep.TornTail = true
			break
		}
		desc := make([]byte, 0, nd*disk.SectorSize)
		desc = append(desc, first...)
		if nd > 1 {
			desc = append(desc, readSectors(pos+1, int64(nd-1))...)
		}
		addrs := make([]int64, 0, n)
		for dsec := 0; dsec < nd; dsec++ {
			s := desc[dsec*disk.SectorSize:]
			if binary.LittleEndian.Uint64(s[0:]) != descMagic ||
				binary.LittleEndian.Uint64(s[8:]) != epoch ||
				binary.LittleEndian.Uint64(s[16:]) != index ||
				binary.LittleEndian.Uint32(s[24:]) != uint32(n) ||
				binary.LittleEndian.Uint32(s[28:]) != uint32(dsec*addrsPerDesc) {
				rep.TornTail = true
				break scan
			}
			for i := dsec * addrsPerDesc; i < n && i < (dsec+1)*addrsPerDesc; i++ {
				addr := int64(binary.LittleEndian.Uint64(s[descHdrBytes+(i-dsec*addrsPerDesc)*8:]))
				if addr < 0 || addr > base-blockSectors {
					// A committed record only addresses metadata below
					// the log region; anything else is corruption. (No
					// sum: an address near the top of int64 would wrap
					// into range.)
					rep.TornTail = true
					break scan
				}
				addrs = append(addrs, addr)
			}
		}
		data := readSectors(pos+int64(nd), int64(n)*blockSectors)
		commit := readSectors(pos+txn-1, 1)
		if binary.LittleEndian.Uint64(commit[0:]) != commitMagic ||
			binary.LittleEndian.Uint64(commit[8:]) != epoch ||
			binary.LittleEndian.Uint64(commit[16:]) != index ||
			binary.LittleEndian.Uint32(commit[24:]) != uint32(n) ||
			binary.LittleEndian.Uint64(commit[32:]) != checksum(desc, data) {
			rep.TornTail = true
			break
		}
		// Committed: write every block home, in record order (a later
		// transaction's copy of the same block overwrites an earlier
		// one, so replay converges on the last committed state).
		for i, addr := range addrs {
			d.WriteImage(addr, data[int64(i)*int64(blockBytes):int64(i+1)*int64(blockBytes)])
			rep.SectorsWritten += blockSectors
		}
		rep.Txns++
		rep.Blocks += n
		pos += txn
		index++
	}

	// Reset: a fresh epoch retires everything still in the region, so
	// the next mount — and a second Recover — starts from nothing.
	d.WriteImage(base, logSuperblock(epoch+1))
	rep.SectorsWritten++
	return rep, nil
}
