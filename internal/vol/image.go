package vol

import (
	"fmt"

	"ufsclust/internal/disk"
)

// Offline image access: the zero-time path mkfs, fsck, repair, and the
// crash-recovery harness use. It runs the timed path's plans (planIO)
// against the members' platters — an offline metadata write keeps
// parity coherent and an offline read of a dead member's chunk
// reconstructs it — so a file system checked offline and a file system
// read through the driver see one device. Offline reads of a mirror
// take its lowest live side and leave the read rotor alone. Nothing
// here moves Stats or emits an event.

// ReadImage copies logical sectors without consuming simulated time.
func (v *Volume) ReadImage(sector int64, buf []byte) {
	v.runImageIO(sector, buf, false)
}

// WriteImage stores logical sectors without consuming simulated time.
func (v *Volume) WriteImage(sector int64, data []byte) {
	v.runImageIO(sector, data, true)
}

// runImageIO checks alignment, plans, and runs the plans offline.
func (v *Volume) runImageIO(sector int64, data []byte, write bool) {
	if len(data)%disk.SectorSize != 0 {
		panic("vol: image access not sector aligned") // simlint:invariant -- offline callers use block-multiple buffers
	}
	if err := v.planIO(sector, data, write, v.firstHealthy, v.runImage); err != nil {
		panic("vol: image access to a broken volume") // simlint:invariant -- construction caps failures at the level's tolerance
	}
}

// runImage is the offline executor of a plan: the same reads, fold and
// writes runPlan issues, straight against the members' platters.
func (v *Volume) runImage(pl plan) {
	for _, r := range pl.reads {
		v.members[r.member].ReadImage(r.msec, r.buf)
	}
	if pl.fold != nil {
		pl.fold(pl.reads)
	}
	for _, w := range pl.writes {
		v.members[w.member].WriteImage(w.msec, w.buf)
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
// taken on an identically configured volume: one image per member, in
// member order. A count that does not match the members, or a nil
// image, is refused before any member changes.
func (v *Volume) Restore(imgs []*disk.Image) error {
	if len(imgs) != len(v.members) {
		return fmt.Errorf("%d platter images for %d member drives", len(imgs), len(v.members))
	}
	for m, img := range imgs {
		if img == nil {
			return fmt.Errorf("platter image %d is nil", m)
		}
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
// service. Each span is one plan whose write is member i: RAID-1 reads
// a live mirror side, RAID-5 reconstructs (planReconstruct). Every
// other member must be healthy.
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
	src := 0 // RAID-1: the lowest other side; every one of them is live
	if i == 0 {
		src = 1
	}
	buf := make([]byte, rebuildSpan*disk.SectorSize)
	for s := int64(0); s < v.msize; s += rebuildSpan {
		pl := plan{kind: direct}
		if v.cfg.Level == RAID1 {
			pl.reads = []xfer{{src, s, buf}}
		} else {
			pl, _ = v.planReconstruct(i, s, buf) // every other member is live
		}
		pl.writes = []xfer{{i, s, buf}}
		v.runImage(pl)
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
	return v.checkSpan(0, v.msize)
}

// CheckParityRange verifies only the redundancy covering logical
// sectors [lsec, lsec+n) — the per-write invariant probe the property
// battery runs after every acknowledged write.
func (v *Volume) CheckParityRange(lsec, n int64) (int, error) {
	if v.cfg.Level != RAID5 {
		return v.checkSpan(lsec, lsec+n)
	}
	rowSpan := int64(len(v.members)-1) * v.ss
	return v.checkSpan(lsec/rowSpan*v.ss, ((lsec+n-1)/rowSpan+1)*v.ss)
}

// checkSpan verifies member-local sectors [mlo, mhi). For RAID-1 the
// span is compared across members; for RAID-5 it is XOR-folded across
// all members, which must cancel to zero (data ⊕ parity = 0 per row,
// regardless of where the rotation put the parity chunk).
func (v *Volume) checkSpan(mlo, mhi int64) (int, error) {
	if !v.redundant() {
		return 0, fmt.Errorf("vol: %s has no redundancy to check", v.cfg.Level)
	}
	if n := v.failedCount(); n > 0 {
		return 0, fmt.Errorf("vol: parity check on a degraded volume (%d dead members)", n)
	}
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
			clear(rb)
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
