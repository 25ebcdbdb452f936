package vol

import (
	"fmt"

	"ufsclust/internal/disk"
)

// Offline image access: the zero-time path mkfs, fsck, repair, and the
// crash-recovery harness use. It honors the same addressing, redundancy
// and degraded-mode semantics as the timed path — an offline metadata
// write keeps RAID-5 parity and mirrors coherent, and an offline read
// of a dead member's chunk reconstructs it — so a file system checked
// offline and a file system read through the driver see one device.

// ReadImage copies logical sectors without consuming simulated time.
func (v *Volume) ReadImage(sector int64, buf []byte) {
	if len(buf)%disk.SectorSize != 0 {
		panic("vol: image access not sector aligned") // simlint:invariant -- offline callers use block-multiple buffers
	}
	n := int64(len(buf) / disk.SectorSize)
	switch v.cfg.Level {
	case RAID1:
		m := v.firstHealthy()
		if m < 0 {
			panic("vol: image read with no live members") // simlint:invariant -- harnesses keep at least one mirror side
		}
		v.members[m].ReadImage(sector, buf)
	default:
		for _, p := range v.mapData(sector, n, 0) {
			dst := buf[p.boff : p.boff+p.n*disk.SectorSize]
			if v.failed[p.member] {
				v.reconstructImage(p.member, p.msec, dst)
			} else {
				v.members[p.member].ReadImage(p.msec, dst)
			}
		}
	}
}

// WriteImage stores logical sectors without consuming simulated time,
// maintaining mirrors and parity exactly as the timed path would.
func (v *Volume) WriteImage(sector int64, data []byte) {
	if len(data)%disk.SectorSize != 0 {
		panic("vol: image access not sector aligned") // simlint:invariant -- offline callers use block-multiple buffers
	}
	n := int64(len(data) / disk.SectorSize)
	switch v.cfg.Level {
	case RAID1:
		for m := range v.members {
			if !v.failed[m] {
				v.members[m].WriteImage(sector, data)
			}
		}
	case RAID5:
		dpr := int64(len(v.members) - 1)
		rowSpan := dpr * v.ss
		for row := sector / rowSpan; row <= (sector+n-1)/rowSpan; row++ {
			lo, hi := row*rowSpan, (row+1)*rowSpan
			if lo < sector {
				lo = sector
			}
			if hi > sector+n {
				hi = sector + n
			}
			v.writeImageRow(row, lo, hi-lo, sector, data)
		}
	default:
		for _, p := range v.mapData(sector, n, 0) {
			v.members[p.member].WriteImage(p.msec, data[p.boff:p.boff+p.n*disk.SectorSize])
		}
	}
}

// firstHealthy returns the lowest live member index, or -1.
func (v *Volume) firstHealthy() int {
	for m, f := range v.failed {
		if !f {
			return m
		}
	}
	return -1
}

// reconstructImage solves the parity equation for a dead member's range
// [msec, msec+len(dst)/SectorSize) by XOR-folding every survivor.
func (v *Volume) reconstructImage(dead int, msec int64, dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
	tmp := make([]byte, len(dst))
	for m := range v.members {
		if m == dead {
			continue
		}
		if v.failed[m] {
			panic("vol: image read with two dead members") // simlint:invariant -- construction caps failures at the level's tolerance
		}
		v.members[m].ReadImage(msec, tmp)
		xorInto(dst, tmp)
	}
}

// writeImageRow is the offline mirror of writeRow: synchronous, same
// three disciplines (full stripe, healthy RMW, degraded).
func (v *Volume) writeImageRow(row, lo, cnt, sector int64, data []byte) {
	dpr := int64(len(v.members) - 1)
	rowSpan := dpr * v.ss
	pm := v.parityMember(row)
	pieces := v.mapRAID5(lo, cnt, (lo-sector)*disk.SectorSize)
	cb := v.ss * disk.SectorSize
	fi := -1
	for m, f := range v.failed {
		if f {
			fi = m
			break
		}
	}

	switch {
	case fi == pm:
		for _, p := range pieces {
			v.members[p.member].WriteImage(p.msec, data[p.boff:p.boff+p.n*disk.SectorSize])
		}

	case cnt == rowSpan:
		parity := make([]byte, cb)
		base := (lo - sector) * disk.SectorSize
		for d := int64(0); d < dpr; d++ {
			xorInto(parity, data[base+d*cb:base+(d+1)*cb])
		}
		for _, p := range pieces {
			if p.member == fi {
				continue
			}
			v.members[p.member].WriteImage(p.msec, data[p.boff:p.boff+p.n*disk.SectorSize])
		}
		v.members[pm].WriteImage(row*v.ss, parity)

	case fi < 0:
		uo, un := v.rowUnion(row, pieces)
		newP := make([]byte, un*disk.SectorSize)
		v.members[pm].ReadImage(row*v.ss+uo, newP)
		old := make([]byte, 0, un*disk.SectorSize)
		for _, p := range pieces {
			old = old[:p.n*disk.SectorSize]
			v.members[p.member].ReadImage(p.msec, old)
			nd := data[p.boff : p.boff+p.n*disk.SectorSize]
			po := (p.msec - row*v.ss - uo) * disk.SectorSize
			xorInto(newP[po:], old)
			xorInto(newP[po:], nd)
			v.members[p.member].WriteImage(p.msec, nd)
		}
		v.members[pm].WriteImage(row*v.ss+uo, newP)

	default:
		// Dead data member: reconstruct the whole old row, overlay, and
		// recompute the parity chunk outright.
		chunks := make([][]byte, len(v.members))
		for m := range v.members {
			chunks[m] = make([]byte, cb)
			if m != fi {
				v.members[m].ReadImage(row*v.ss, chunks[m])
			}
		}
		for m := range v.members {
			if m != fi {
				xorInto(chunks[fi], chunks[m])
			}
		}
		for _, p := range pieces {
			copy(chunks[p.member][(p.msec-row*v.ss)*disk.SectorSize:], data[p.boff:p.boff+p.n*disk.SectorSize])
		}
		parity := make([]byte, cb)
		for m := range v.members {
			if m != pm {
				xorInto(parity, chunks[m])
			}
		}
		for _, p := range pieces {
			if p.member == fi {
				continue
			}
			v.members[p.member].WriteImage(p.msec, data[p.boff:p.boff+p.n*disk.SectorSize])
		}
		v.members[pm].WriteImage(row*v.ss, parity)
	}
}

// --- snapshot / restore --------------------------------------------------

// Snapshot deep-copies every member's platter contents, in member
// order — the crash-state capture for volume machines.
func (v *Volume) Snapshot() []*disk.Image {
	imgs := make([]*disk.Image, len(v.members))
	for m, d := range v.members {
		imgs[m] = d.Snapshot()
	}
	return imgs
}

// Restore replaces every member's platter contents from a snapshot
// taken on an identically configured volume.
func (v *Volume) Restore(imgs []*disk.Image) error {
	if len(imgs) != len(v.members) {
		return fmt.Errorf("vol: restore of %d member images onto %d members", len(imgs), len(v.members))
	}
	for m, d := range v.members {
		d.Restore(imgs[m])
	}
	return nil
}

// --- rebuild and verification --------------------------------------------

// rebuildSpan is how many sectors Rebuild and CheckParity process per
// step: one image chunk's worth keeps the offline copies cheap.
const rebuildSpan = 128

// Rebuild reconstructs member i's entire contents from the survivors —
// the "replace the drive and resilver" operation — and returns it to
// service. RAID-1 copies a live mirror side; RAID-5 solves the parity
// equation per span. Every other member must be healthy.
func (v *Volume) Rebuild(i int) error {
	if i < 0 || i >= len(v.members) {
		return fmt.Errorf("vol: rebuild member %d out of range", i)
	}
	if !v.redundant() {
		return fmt.Errorf("vol: %s has no redundancy to rebuild from", v.cfg.Level)
	}
	for m, f := range v.failed {
		if f && m != i {
			return fmt.Errorf("vol: rebuild of sd%d with sd%d also dead", i, m)
		}
	}
	switch v.cfg.Level {
	case RAID1:
		src := -1
		for m := range v.members {
			if m != i && !v.failed[m] {
				src = m
				break
			}
		}
		if src < 0 {
			return fmt.Errorf("vol: no live mirror side to rebuild sd%d from", i)
		}
		buf := make([]byte, rebuildSpan*disk.SectorSize)
		for s := int64(0); s < v.msize; s += rebuildSpan {
			v.members[src].ReadImage(s, buf)
			v.members[i].WriteImage(s, buf)
		}
	case RAID5:
		buf := make([]byte, rebuildSpan*disk.SectorSize)
		tmp := make([]byte, rebuildSpan*disk.SectorSize)
		for s := int64(0); s < v.msize; s += rebuildSpan {
			for j := range buf {
				buf[j] = 0
			}
			for m := range v.members {
				if m == i {
					continue
				}
				v.members[m].ReadImage(s, tmp)
				xorInto(buf, tmp)
			}
			v.members[i].WriteImage(s, buf)
		}
	}
	v.failed[i] = false
	return nil
}

// CheckParity verifies the redundancy invariant across the whole
// array: every RAID-5 row's parity chunk equals the XOR of its data
// chunks; every RAID-1 member is byte-identical. It returns the number
// of violating spans and a description of the first. The volume must
// be fully healthy — a degraded array has nothing to check against.
func (v *Volume) CheckParity() (int, error) {
	if !v.redundant() {
		return 0, fmt.Errorf("vol: %s has no redundancy to check", v.cfg.Level)
	}
	if n := v.failedCount(); n > 0 {
		return 0, fmt.Errorf("vol: parity check on a degraded volume (%d dead members)", n)
	}
	return v.checkSpan(0, v.msize)
}

// CheckParityRange verifies only the redundancy covering logical
// sectors [lsec, lsec+n) — the per-write invariant probe the property
// battery runs after every acknowledged write.
func (v *Volume) CheckParityRange(lsec, n int64) (int, error) {
	if !v.redundant() {
		return 0, fmt.Errorf("vol: %s has no redundancy to check", v.cfg.Level)
	}
	if c := v.failedCount(); c > 0 {
		return 0, fmt.Errorf("vol: parity check on a degraded volume (%d dead members)", c)
	}
	var mlo, mhi int64
	switch v.cfg.Level {
	case RAID1:
		mlo, mhi = lsec, lsec+n
	case RAID5:
		dpr := int64(len(v.members) - 1)
		mlo = (lsec / (dpr * v.ss)) * v.ss
		mhi = ((lsec+n-1)/(dpr*v.ss) + 1) * v.ss
	}
	return v.checkSpan(mlo, mhi)
}

// checkSpan verifies member-local sectors [mlo, mhi). For RAID-1 the
// span is compared across members; for RAID-5 it is XOR-folded across
// all members, which must cancel to zero (data ⊕ parity = 0 per row,
// regardless of where the rotation put the parity chunk).
func (v *Volume) checkSpan(mlo, mhi int64) (int, error) {
	bad := 0
	var firstErr error
	note := func(s int64, form string, args ...any) {
		bad++
		if firstErr == nil {
			firstErr = fmt.Errorf("vol: %s span at member sector %d: %s", v.cfg.Level, s, fmt.Sprintf(form, args...))
		}
	}
	ref := make([]byte, rebuildSpan*disk.SectorSize)
	tmp := make([]byte, rebuildSpan*disk.SectorSize)
	for s := mlo; s < mhi; s += rebuildSpan {
		span := mhi - s
		if span > rebuildSpan {
			span = rebuildSpan
		}
		rb := ref[:span*disk.SectorSize]
		tb := tmp[:span*disk.SectorSize]
		switch v.cfg.Level {
		case RAID1:
			v.members[0].ReadImage(s, rb)
			for m := 1; m < len(v.members); m++ {
				v.members[m].ReadImage(s, tb)
				for j := range tb {
					if tb[j] != rb[j] {
						note(s, "sd%d diverges from sd0 at byte %d", m, j)
						break
					}
				}
			}
		case RAID5:
			for j := range rb {
				rb[j] = 0
			}
			for m := range v.members {
				v.members[m].ReadImage(s, tb)
				xorInto(rb, tb)
			}
			for j := range rb {
				if rb[j] != 0 {
					note(s, "parity equation violated at byte %d", j)
					break
				}
			}
		}
	}
	return bad, firstErr
}
