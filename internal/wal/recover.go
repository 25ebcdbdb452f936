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
	Records  int    // sector runs written home
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
	return fmt.Sprintf("replayed %d txns (%d records), %s; read %d/%d log sectors, wrote %d",
		r.Txns, r.Records, tail, r.SectorsRead, r.LogSectors, r.SectorsWritten)
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
	devSectors := d.Geom().TotalBytes() / disk.SectorSize
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
		nd := (n + entriesPerDesc - 1) / entriesPerDesc
		if pos+int64(nd)+1 > sectors {
			rep.TornTail = true
			break
		}
		desc := make([]byte, 0, nd*disk.SectorSize)
		desc = append(desc, first...)
		if nd > 1 {
			desc = append(desc, readSectors(pos+1, int64(nd-1))...)
		}
		// Each record is a run of sectors inside one block, on the
		// device and outside the log region (homes lie on both sides of
		// it); anything else is corruption.
		runs := make([][2]int64, 0, n)
		var total int64
		for dsec := 0; dsec < nd; dsec++ {
			s := desc[dsec*disk.SectorSize:]
			if binary.LittleEndian.Uint64(s[0:]) != descMagic ||
				binary.LittleEndian.Uint64(s[8:]) != epoch ||
				binary.LittleEndian.Uint64(s[16:]) != index ||
				binary.LittleEndian.Uint32(s[24:]) != uint32(n) ||
				binary.LittleEndian.Uint32(s[28:]) != uint32(dsec*entriesPerDesc) {
				rep.TornTail = true
				break scan
			}
			for i := dsec * entriesPerDesc; i < n && i < (dsec+1)*entriesPerDesc; i++ {
				addr, count := unpackEntry(binary.LittleEndian.Uint64(s[descHdrBytes+(i-dsec*entriesPerDesc)*8:]))
				if count == 0 || count > blockSectors || addr+count > devSectors ||
					addr < base+sectors && addr+count > base {
					rep.TornTail = true
					break scan
				}
				runs = append(runs, [2]int64{addr, count})
				total += count
			}
		}
		txn := int64(nd) + total + 1
		if pos+txn > sectors {
			rep.TornTail = true
			break
		}
		data := readSectors(pos+int64(nd), total)
		commit := readSectors(pos+txn-1, 1)
		if binary.LittleEndian.Uint64(commit[0:]) != commitMagic ||
			binary.LittleEndian.Uint64(commit[8:]) != epoch ||
			binary.LittleEndian.Uint64(commit[16:]) != index ||
			binary.LittleEndian.Uint32(commit[24:]) != uint32(n) ||
			binary.LittleEndian.Uint64(commit[32:]) != checksum(desc, data) {
			rep.TornTail = true
			break
		}
		// Committed: write every run home, in log order (a later
		// record of the same sectors overwrites an earlier one, so
		// replay converges on the last committed state).
		for _, r := range runs {
			d.WriteImage(r[0], data[:r[1]*disk.SectorSize])
			data = data[r[1]*disk.SectorSize:]
			rep.SectorsWritten += r[1]
		}
		rep.Txns++
		rep.Records += n
		pos += txn
		index++
	}

	// Reset: a fresh epoch retires everything still in the region, so
	// the next mount — and a second Recover — starts from nothing.
	d.WriteImage(base, logSuperblock(epoch+1))
	rep.SectorsWritten++
	return rep, nil
}
