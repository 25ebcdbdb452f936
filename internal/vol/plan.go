package vol

import (
	"crypto/subtle"

	"ufsclust/internal/disk"
)

// The volume's member I/O, stated once. planIO turns a logical request
// of any level into plans; a plan names the member ranges to read, how
// to fold what was read, and the member ranges to write afterwards, and
// making one performs no I/O. runPlan (rdwr.go) carries a plan out
// through the member drives in virtual time and runImage (image.go)
// through their platters in none, so the driver and the offline tools —
// mkfs, fsck, repair, log recovery — address members, mirror sides and
// parity by the same rules.

// discipline is what a plan does: one of the four ways the part of a
// parity row a request covers is written, a reconstruction, or plain
// member transfers.
type discipline uint8

const (
	// parityDead: the row's parity member is dead. Plain data writes;
	// there is no redundancy to maintain.
	parityDead discipline = iota
	// fullStripe: the request holds the whole row. Parity is the XOR of
	// the new data and nothing is read, even when a data member is dead.
	fullStripe
	// healthyRMW: partial row, every member alive. Phase one reads the
	// old data under each written piece and the old parity under their
	// union; the fold XORs old-data ⊕ new-data into that parity.
	healthyRMW
	// deadDataRMW: partial row, a data member dead. Phase one reads the
	// entire surviving row so the fold can solve for the dead chunk,
	// overlay the new data and recompute the parity chunk outright.
	deadDataRMW
	// reconstruct: a read of a dead RAID-5 member's run, solved from
	// every survivor (planReconstruct).
	reconstruct
	// direct: member transfers with no parity to keep — a concat,
	// RAID-0 or live RAID-5 run, or the sides of a mirror.
	direct
)

// xfer is one member transfer of a plan.
type xfer struct {
	member int
	msec   int64
	buf    []byte
}

// plan is two phases of member I/O around a fold. fold is handed the
// reads once every one has completed and fills the buffers the writes
// carry; it is nil when the writes are ready as planned.
type plan struct {
	kind   discipline
	dead   int   // row kinds: the failed member, -1 on a healthy array; reconstruct: the member solved for
	row    int64 // row kinds: the parity row
	npiece int   // row kinds: data pieces the request covers in this row
	reads  []xfer
	fold   func(reads []xfer)
	writes []xfer
}

// planIO hands fn, in the order the timed path issues them, the plans
// a logical request for data at sector becomes:
//
//   - concat and RAID-0: one direct plan per member run;
//   - RAID-1: a read from the side mirror() picks, or one write per
//     live side in a single plan;
//   - RAID-5 reads: live-member runs as for RAID-0, a reconstruction
//     for a run on the dead member;
//   - RAID-5 writes: one row plan per parity row (planRow).
//
// A run that no live member holds gets no plan: planIO returns
// disk.ErrMedia after planning the rest. So does a RAID-5 write with
// more members dead than the parity covers, and a RAID-1 request with
// every side dead.
func (v *Volume) planIO(sector int64, data []byte, write bool, mirror func() int, fn func(plan)) error {
	n := int64(len(data) / disk.SectorSize)
	switch {
	case v.cfg.Level == RAID1 && write:
		pl := plan{kind: direct, writes: make([]xfer, 0, len(v.members))}
		for m := range v.members {
			if !v.failed[m] {
				// Members share the caller's buffer: writes only read it.
				pl.writes = append(pl.writes, xfer{m, sector, data})
			}
		}
		if len(pl.writes) == 0 {
			return disk.ErrMedia
		}
		fn(pl)
		return nil
	case v.cfg.Level == RAID1:
		m := mirror()
		if m < 0 {
			return disk.ErrMedia
		}
		fn(plan{kind: direct, reads: []xfer{{m, sector, data}}})
		return nil
	case v.cfg.Level == RAID5 && write:
		if v.failedCount() > v.tolerance() {
			return disk.ErrMedia
		}
		rowSpan := int64(len(v.members)-1) * v.ss
		for row := sector / rowSpan; row <= (sector+n-1)/rowSpan; row++ {
			fn(v.planRow(row, sector, data))
		}
		return nil
	}
	var err error
	for _, run := range buildRuns(v.mapData(sector, n, 0)) {
		if pl, ok := v.planRun(run, data, write); ok {
			fn(pl)
		} else {
			err = disk.ErrMedia
		}
	}
	return err
}

// planRun plans one member run of a concat or RAID-0 request or of a
// RAID-5 read. A one-piece run transfers the request's own
// bytes; a multi-piece run goes through a bounce buffer, gathered here
// for a write and scattered by the plan's fold after a read. A read of
// a dead RAID-5 member's run reconstructs it; ok is false when that is
// impossible. Only RAID-5 has anything to reconstruct from: a member
// failed administratively on a non-redundant level is still read.
func (v *Volume) planRun(run memRun, data []byte, write bool) (pl plan, ok bool) {
	buf := run.pieces[0].of(data)
	if len(run.pieces) > 1 {
		buf = make([]byte, run.n*disk.SectorSize)
		if write {
			off := int64(0)
			for _, p := range run.pieces {
				off += int64(copy(buf[off:], p.of(data)))
			}
		}
	}
	switch {
	case write:
		return plan{kind: direct, writes: []xfer{{run.member, run.msec, buf}}}, true
	case v.cfg.Level == RAID5 && v.failed[run.member]:
		if pl, ok = v.planReconstruct(run.member, run.msec, buf); !ok {
			return plan{}, false
		}
	default:
		pl = plan{kind: direct, reads: []xfer{{run.member, run.msec, buf}}}
	}
	if len(run.pieces) > 1 {
		solve, pieces := pl.fold, run.pieces
		pl.fold = func(reads []xfer) {
			if solve != nil {
				solve(reads)
			}
			scatter(data, pieces, buf)
		}
	}
	return pl, true
}

// planRow plans writing the part of stripe row that a request for data
// at logical sector covers. Reads and writes are listed in the order
// the timed path issues them: data pieces in logical order (whole
// surviving chunks in member order for deadDataRMW reads), parity last.
func (v *Volume) planRow(row, sector int64, data []byte) plan {
	nm := len(v.members)
	rowSpan := int64(nm-1) * v.ss
	lo, hi := row*rowSpan, (row+1)*rowSpan
	if lo < sector {
		lo = sector
	}
	if end := sector + int64(len(data)/disk.SectorSize); hi > end {
		hi = end
	}
	base := (lo - sector) * disk.SectorSize
	pieces := v.mapData(lo, hi-lo, base)
	pm, ps := v.parityMember(row), row*v.ss // parity member, row's member start sector
	cb := v.ss * disk.SectorSize            // chunk bytes
	fi := v.failedMember()

	pl := plan{dead: fi, row: row, npiece: len(pieces), writes: make([]xfer, 0, len(pieces)+1)}
	for _, p := range pieces {
		if p.member != fi { // a dead data member's piece lives on only in the parity
			pl.writes = append(pl.writes, xfer{p.member, p.msec, p.of(data)})
		}
	}
	switch {
	case fi == pm:
		pl.kind = parityDead

	case hi-lo == rowSpan:
		pl.kind = fullStripe
		parity := make([]byte, cb)
		for off := int64(0); off < rowSpan*disk.SectorSize; off += cb {
			xorInto(parity, data[base+off:base+off+cb])
		}
		pl.writes = append(pl.writes, xfer{pm, ps, parity})

	case fi < 0:
		pl.kind = healthyRMW
		uo, un := v.rowUnion(row, pieces)
		pl.reads = make([]xfer, 0, len(pieces)+1)
		for _, p := range pieces {
			pl.reads = append(pl.reads, xfer{p.member, p.msec, make([]byte, p.n*disk.SectorSize)})
		}
		parity := make([]byte, un*disk.SectorSize)
		pl.reads = append(pl.reads, xfer{pm, ps + uo, parity})
		pl.fold = func(old []xfer) {
			for i, p := range pieces {
				po := (p.msec - ps - uo) * disk.SectorSize
				xorInto(parity[po:], old[i].buf)
				xorInto(parity[po:], p.of(data))
			}
		}
		pl.writes = append(pl.writes, xfer{pm, ps + uo, parity})

	default:
		pl.kind = deadDataRMW
		chunks := make([][]byte, nm) // whole old chunk per member; the reads fill the survivors'
		for m := range chunks {
			chunks[m] = make([]byte, cb)
			if m != fi {
				pl.reads = append(pl.reads, xfer{m, ps, chunks[m]})
			}
		}
		parity := make([]byte, cb)
		pl.fold = func([]xfer) {
			for m, b := range chunks {
				if m != fi {
					xorInto(chunks[fi], b)
				}
			}
			for _, p := range pieces {
				copy(chunks[p.member][(p.msec-ps)*disk.SectorSize:], p.of(data))
			}
			for m, b := range chunks {
				if m != pm {
					xorInto(parity, b)
				}
			}
		}
		pl.writes = append(pl.writes, xfer{pm, ps, parity})
	}
	return pl
}

// failedMember returns the lowest failed member index, or -1.
func (v *Volume) failedMember() int {
	for m, f := range v.failed {
		if f {
			return m
		}
	}
	return -1
}

// rowUnion returns the within-chunk sector range [uo, uo+un) covered by
// any piece of the row.
func (v *Volume) rowUnion(row int64, pieces []piece) (uo, un int64) {
	lo, hi := v.ss, int64(0)
	for _, p := range pieces {
		o := p.msec - row*v.ss
		if o < lo {
			lo = o
		}
		if o+p.n > hi {
			hi = o + p.n
		}
	}
	return lo, hi - lo
}

// planReconstruct plans solving the parity equation for the dead
// member's range [msec, msec+len(dst)/SectorSize): the first survivor's
// range is read straight into dst and the fold XORs every other
// survivor's over it. ok is false when a second member is dead — the
// row is unrecoverable.
func (v *Volume) planReconstruct(dead int, msec int64, dst []byte) (pl plan, ok bool) {
	reads := make([]xfer, 0, len(v.members)-1)
	for m := range v.members {
		if m == dead {
			continue
		}
		if v.failed[m] {
			return plan{}, false
		}
		buf := dst
		if len(reads) > 0 {
			buf = make([]byte, len(dst))
		}
		reads = append(reads, xfer{m, msec, buf})
	}
	fold := func(survivors []xfer) {
		for _, r := range survivors[1:] {
			xorInto(dst, r.buf)
		}
	}
	return plan{kind: reconstruct, dead: dead, reads: reads, fold: fold}, true
}

// xorInto folds src into dst; len(src) must not exceed len(dst).
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}
