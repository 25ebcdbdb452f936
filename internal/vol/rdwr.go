package vol

import (
	"crypto/subtle"

	"ufsclust/internal/disk"
	"ufsclust/internal/telemetry"
)

// piece is one logically contiguous run of sectors that also lands
// contiguously on a single member: request bytes
// [boff, boff+n*SectorSize) map to member sectors [msec, msec+n).
type piece struct {
	member int
	msec   int64 // member start sector
	boff   int64 // byte offset into the request's Data
	n      int64 // sectors
}

// memRun is a member-contiguous group of pieces issued as one member
// request — the volume's scatter/gather unit. RAID-0 folds a long
// request's every-Nth chunks into one streaming transfer per spindle;
// RAID-5 breaks runs where the parity rotation interrupts member-space
// contiguity.
type memRun struct {
	member int
	msec   int64
	n      int64
	pieces []piece
}

// volReq is the aggregation state for one logical request in flight:
// how many member operations remain, the first member error seen, and
// which member to blame for it.
type volReq struct {
	r       *disk.Request
	pending int
	err     error
	failMem int // member responsible for err; -1 when not a member fault

	// RAID-5 parity-row locks held by this request (see acquireRows):
	// rows [lockLo, nextRow) are held, nextRow is the one being waited
	// for while the request is parked on a rowWait list.
	locked         bool
	lockLo, lockHi int64
	nextRow        int64
}

// redundant reports whether the level can serve around a failed member.
func (v *Volume) redundant() bool {
	return v.cfg.Level == RAID1 || v.cfg.Level == RAID5
}

// Submit queues one logical request. A one-member concat forwards the
// request object untouched — the identity composition the golden-replay
// gate holds to byte-for-byte equality with a bare drive. Otherwise the
// request is split into member operations; completion is delivered
// through r.Done once every member operation (including any parity
// read-modify-write phases) has finished.
func (v *Volume) Submit(r *disk.Request) {
	if v.passthrough() {
		v.members[0].Submit(r)
		return
	}
	if r.Count <= 0 || r.Sector < 0 || r.Sector+int64(r.Count) > v.geom.TotalSectors() {
		panic("vol: request out of range") // simlint:invariant -- driver validates transfers before queueing
	}
	if len(r.Data) != r.Count*disk.SectorSize {
		panic("vol: request data length mismatch") // simlint:invariant -- driver validates transfers before queueing
	}
	v.issue(&volReq{r: r})
}

// issue starts (or, after a member failure, restarts) the member
// operations for q. RAID-5 writes — and every RAID-5 operation while a
// member is dead — first take the parity-row locks for the rows the
// request touches: the driver keeps one request in flight per spindle
// with no notion of rows, so two concurrent partial writes to the same
// row would both read the same old parity and the second write-back
// would erase the first one's delta. Reads of a healthy array touch no
// parity and proceed unlocked.
func (v *Volume) issue(q *volReq) {
	if v.cfg.Level == RAID5 && !q.locked && (q.r.Write || v.failedCount() > 0) {
		rowSpan := int64(len(v.members)-1) * v.ss
		q.lockLo = q.r.Sector / rowSpan
		q.lockHi = (q.r.Sector + int64(q.r.Count) - 1) / rowSpan
		q.locked = true
		q.nextRow = q.lockLo
		v.acquireRows(q)
		return
	}
	v.dispatch(q)
}

// dispatch splits q into member operations. The pending guard held
// across the dispatch keeps a fast-failing path from finishing the
// request before every member operation has been counted.
func (v *Volume) dispatch(q *volReq) {
	q.err, q.failMem = nil, -1
	q.pending = 1
	if q.r.Write {
		v.issueWrite(q)
	} else {
		v.issueRead(q)
	}
	v.done(q, nil, -1)
}

// acquireRows continues q's parity-row acquisition from q.nextRow up
// to q.lockHi, then dispatches it. Acquisition is strictly ascending
// and a holder never gives a row back while waiting for the next, so
// overlapping requests form a queue, never a cycle. A blocked request
// parks on the contended row's wait list and consumes no simulation
// process — unlockRows resumes it when the holder finishes.
func (v *Volume) acquireRows(q *volReq) {
	for ; q.nextRow <= q.lockHi; q.nextRow++ {
		if v.rowBusy[q.nextRow] {
			v.rowWait[q.nextRow] = append(v.rowWait[q.nextRow], q)
			return
		}
		v.rowBusy[q.nextRow] = true
	}
	v.dispatch(q)
}

// unlockRows releases rows [lo, hi]; each row with a waiter is handed
// over still locked, resuming that request's acquisition immediately.
func (v *Volume) unlockRows(lo, hi int64) {
	for row := lo; row <= hi; row++ {
		if ws := v.rowWait[row]; len(ws) > 0 {
			if v.rowWait[row] = ws[1:]; len(ws) == 1 {
				delete(v.rowWait, row)
			}
			w := ws[0]
			w.nextRow = row + 1
			v.acquireRows(w)
			continue
		}
		delete(v.rowBusy, row)
	}
}

// fail records a request-level error discovered at issue time.
func (v *Volume) fail(q *volReq, err error) {
	if q.err == nil {
		q.err = err
		q.failMem = -1
	}
}

// done retires one member operation (or the issue guard). The first
// error wins; the request completes when the count drains.
func (v *Volume) done(q *volReq, err error, member int) {
	if err != nil && q.err == nil {
		q.err, q.failMem = err, member
	}
	q.pending--
	if q.pending == 0 {
		v.finish(q)
	}
}

// finish completes the logical request — or, when a member fault hit a
// redundant volume that can still lose a spindle, fails that member and
// reissues the whole request against the survivors. Reissuing the
// logical operation (rather than patching the one member transfer) is
// what the latched fault identity in internal/fault is keyed for: the
// failover lands on a different spindle, so a hard fault on sd1 does
// not chase the data to sd2. Each failover removes a member, so the
// retry count is bounded by the member count.
func (v *Volume) finish(q *volReq) {
	if q.err != nil && q.failMem >= 0 && v.redundant() &&
		!v.failed[q.failMem] && v.failedCount() < v.tolerance() {
		v.FailMember(q.failMem)
		v.Stats.Failovers++
		if !q.r.Write {
			// The reissue serves this read around the dead member —
			// mirror failover, or parity reconstruction on the retry.
			v.Stats.DegradedReads++
			v.bus.Emit(telemetry.Event{
				T:      v.s.Now(),
				Kind:   telemetry.EvDegradedRead,
				Sector: q.r.Sector,
				Bytes:  int64(q.r.Count) * disk.SectorSize,
				Dev:    v.members[q.failMem].Name(),
			})
		}
		v.issue(q)
		return
	}
	if q.locked {
		// Release before delivery: a parked request waiting on these rows
		// resumes (and may issue member operations) ahead of the caller's
		// completion callback, exactly as a sleeping process is woken
		// before the interrupt handler returns.
		q.locked = false
		v.unlockRows(q.lockLo, q.lockHi)
	}
	q.r.Err = q.err
	if q.r.Done != nil {
		// Deliver in scheduler context like a drive interrupt, and never
		// synchronously inside Submit.
		v.s.After(0, q.r.Done)
	}
}

// subIO issues one member operation and wires its completion into q.
// hook, if set, runs before the operation is retired — phase chaining
// (parity RMW, reconstruction) uses it to add follow-on operations
// while q is still held open by the completing one.
func (v *Volume) subIO(q *volReq, member int, msec int64, data []byte, write bool, hook func(err error)) {
	q.pending++
	v.Stats.SubRequests++
	req := &disk.Request{
		Sector: msec,
		Count:  len(data) / disk.SectorSize,
		Write:  write,
		Data:   data,
	}
	req.Done = func() {
		if hook != nil {
			hook(req.Err)
		}
		v.done(q, req.Err, member)
	}
	v.members[member].Submit(req)
}

// --- address mapping -----------------------------------------------------

// mapData translates logical sectors [lsec, lsec+n) into member pieces,
// in logical order. boff is the byte offset of lsec within the
// request's Data.
func (v *Volume) mapData(lsec, n, boff int64) []piece {
	switch v.cfg.Level {
	case Concat:
		return v.mapConcat(lsec, n, boff)
	case RAID0:
		return v.mapRAID0(lsec, n, boff)
	case RAID5:
		return v.mapRAID5(lsec, n, boff)
	}
	// RAID-1 member addresses equal logical addresses; mirroring is
	// decided at issue time, not by the mapping.
	panic("vol: mapData on mirror") // simlint:invariant -- issueRead/issueWrite special-case RAID1
}

func (v *Volume) mapConcat(lsec, n, boff int64) []piece {
	var ps []piece
	for n > 0 {
		m := int(lsec / v.msize)
		o := lsec - v.cum[m]
		run := v.msize - o
		if run > n {
			run = n
		}
		ps = append(ps, piece{member: m, msec: o, boff: boff, n: run})
		lsec, n, boff = lsec+run, n-run, boff+run*disk.SectorSize
	}
	return ps
}

func (v *Volume) mapRAID0(lsec, n, boff int64) []piece {
	nm := int64(len(v.members))
	var ps []piece
	for n > 0 {
		t := lsec / v.ss // logical chunk index
		o := lsec % v.ss
		run := v.ss - o
		if run > n {
			run = n
		}
		ps = append(ps, piece{
			member: int(t % nm),
			msec:   (t/nm)*v.ss + o,
			boff:   boff,
			n:      run,
		})
		lsec, n, boff = lsec+run, n-run, boff+run*disk.SectorSize
	}
	return ps
}

// parityMember is the member holding row's parity chunk. The rotation
// is left-asymmetric: row 0 parks parity on the last member and each
// successive row moves it one member to the left, so large sequential
// transfers spread parity I/O across all spindles.
func (v *Volume) parityMember(row int64) int {
	nm := len(v.members)
	return nm - 1 - int(row%int64(nm))
}

// dataMember is the member holding data chunk d (0-based within the
// row) of row, skipping over the parity member.
func (v *Volume) dataMember(row int64, d int) int {
	if p := v.parityMember(row); d >= p {
		return d + 1
	}
	return d
}

func (v *Volume) mapRAID5(lsec, n, boff int64) []piece {
	dpr := int64(len(v.members) - 1) // data chunks per row
	var ps []piece
	for n > 0 {
		t := lsec / v.ss
		o := lsec % v.ss
		run := v.ss - o
		if run > n {
			run = n
		}
		row := t / dpr
		ps = append(ps, piece{
			member: v.dataMember(row, int(t%dpr)),
			msec:   row*v.ss + o,
			boff:   boff,
			n:      run,
		})
		lsec, n, boff = lsec+run, n-run, boff+run*disk.SectorSize
	}
	return ps
}

// buildRuns folds pieces into member-contiguous runs, preserving the
// order in which members first appear — the deterministic issue order
// the stripe-straddling golden test asserts.
func (v *Volume) buildRuns(pieces []piece) []memRun {
	var runs []memRun
	last := make([]int, len(v.members))
	for i := range last {
		last[i] = -1
	}
	for _, p := range pieces {
		if i := last[p.member]; i >= 0 && runs[i].msec+runs[i].n == p.msec {
			runs[i].n += p.n
			runs[i].pieces = append(runs[i].pieces, p)
			continue
		}
		runs = append(runs, memRun{member: p.member, msec: p.msec, n: p.n, pieces: []piece{p}})
		last[p.member] = len(runs) - 1
	}
	return runs
}

// submitRuns issues one member request per run. Single-piece runs use
// the request's own buffer slice; multi-piece runs gather (writes)
// or scatter (reads) through a bounce buffer.
func (v *Volume) submitRuns(q *volReq, runs []memRun, write bool) {
	data := q.r.Data
	for _, run := range runs {
		if len(run.pieces) == 1 {
			p := run.pieces[0]
			v.subIO(q, run.member, run.msec, data[p.boff:p.boff+p.n*disk.SectorSize], write, nil)
			continue
		}
		buf := make([]byte, run.n*disk.SectorSize)
		if write {
			off := int64(0)
			for _, p := range run.pieces {
				copy(buf[off:], data[p.boff:p.boff+p.n*disk.SectorSize])
				off += p.n * disk.SectorSize
			}
			v.subIO(q, run.member, run.msec, buf, true, nil)
			continue
		}
		pieces := run.pieces
		v.subIO(q, run.member, run.msec, buf, false, func(err error) {
			if err != nil {
				return
			}
			off := int64(0)
			for _, p := range pieces {
				copy(data[p.boff:p.boff+p.n*disk.SectorSize], buf[off:])
				off += p.n * disk.SectorSize
			}
		})
	}
}

// --- reads ---------------------------------------------------------------

func (v *Volume) issueRead(q *volReq) {
	r := q.r
	switch v.cfg.Level {
	case Concat, RAID0:
		v.submitRuns(q, v.buildRuns(v.mapData(r.Sector, int64(r.Count), 0)), false)
	case RAID1:
		m := v.pickMirror()
		if m < 0 {
			v.fail(q, disk.ErrMedia)
			return
		}
		v.subIO(q, m, r.Sector, r.Data, false, nil)
	case RAID5:
		for _, run := range v.buildRuns(v.mapData(r.Sector, int64(r.Count), 0)) {
			if v.failed[run.member] {
				v.reconstructRead(q, run)
			} else {
				v.submitRuns(q, []memRun{run}, false)
			}
		}
	}
}

// pickMirror rotates reads across the healthy mirror members so the
// spindles share the load; -1 when every member is dead.
func (v *Volume) pickMirror() int {
	nm := len(v.members)
	for i := 0; i < nm; i++ {
		m := (v.rr + i) % nm
		if !v.failed[m] {
			v.rr = (m + 1) % nm
			return m
		}
	}
	return -1
}

// reconstructRead serves a run addressed to a failed RAID-5 member by
// reading the same member-local range from every surviving spindle and
// XOR-folding them into the destination — the missing chunk is the
// parity equation solved for the dead member.
func (v *Volume) reconstructRead(q *volReq, run memRun) {
	v.Stats.DegradedReads++
	v.bus.Emit(telemetry.Event{
		T:      v.s.Now(),
		Kind:   telemetry.EvDegradedRead,
		Sector: run.msec,
		Bytes:  run.n * disk.SectorSize,
		Dev:    v.members[run.member].Name(),
	})
	rb := make([]byte, run.n*disk.SectorSize)
	rem := 0
	for m := range v.members {
		if m == run.member {
			continue
		}
		if v.failed[m] {
			// Second dead spindle: the row is unrecoverable.
			v.fail(q, disk.ErrMedia)
			return
		}
		rem++
	}
	pieces := run.pieces
	data := q.r.Data
	for m := range v.members {
		if m == run.member {
			continue
		}
		mb := make([]byte, run.n*disk.SectorSize)
		v.subIO(q, m, run.msec, mb, false, func(err error) {
			if err == nil {
				xorInto(rb, mb)
			}
			rem--
			if rem == 0 && q.err == nil {
				off := int64(0)
				for _, p := range pieces {
					copy(data[p.boff:p.boff+p.n*disk.SectorSize], rb[off:])
					off += p.n * disk.SectorSize
				}
			}
		})
	}
}

// --- writes --------------------------------------------------------------

func (v *Volume) issueWrite(q *volReq) {
	r := q.r
	switch v.cfg.Level {
	case Concat, RAID0:
		v.submitRuns(q, v.buildRuns(v.mapData(r.Sector, int64(r.Count), 0)), true)
	case RAID1:
		issued := 0
		for m := range v.members {
			if v.failed[m] {
				continue
			}
			// Members share the caller's buffer: writes only read it.
			v.subIO(q, m, r.Sector, r.Data, true, nil)
			issued++
		}
		if issued == 0 {
			v.fail(q, disk.ErrMedia)
		}
	case RAID5:
		dpr := int64(len(v.members) - 1)
		rowSpan := dpr * v.ss
		lsec, n := r.Sector, int64(r.Count)
		for row := lsec / rowSpan; row <= (lsec+n-1)/rowSpan; row++ {
			lo, hi := row*rowSpan, (row+1)*rowSpan
			if lo < lsec {
				lo = lsec
			}
			if hi > lsec+n {
				hi = lsec + n
			}
			v.writeRow(q, row, lo, hi-lo)
		}
	}
}

// writeRow issues the member operations for the part of one RAID-5
// stripe row covered by [lo, lo+cnt). Three disciplines:
//
//   - full row, all members healthy: compute parity from the request
//     data and write everything in one phase (no reads — the
//     full-stripe fast path).
//   - partial row, all members healthy: read-modify-write. Phase one
//     reads the old data under each written piece and the old parity
//     under their union; phase two XOR-folds old-data ⊕ new-data into
//     the parity and writes data plus parity.
//   - a member is dead: writes to survivors only. A dead parity member
//     costs nothing extra; a dead data member upgrades a partial write
//     to a whole-row read so the missing old chunk can be
//     reconstructed before the new parity is computed.
func (v *Volume) writeRow(q *volReq, row, lo, cnt int64) {
	dpr := int64(len(v.members) - 1)
	rowSpan := dpr * v.ss
	pm := v.parityMember(row)
	pieces := v.mapRAID5(lo, cnt, (lo-q.r.Sector)*disk.SectorSize)
	full := cnt == rowSpan
	cb := v.ss * disk.SectorSize // chunk bytes

	fi := -1 // failed member, if any (tolerance is 1)
	for m, f := range v.failed {
		if f {
			fi = m
			break
		}
	}

	switch {
	case fi == pm:
		// Parity spindle is dead: plain data writes, no redundancy to
		// maintain.
		v.Stats.DegradedWrites++
		for _, p := range pieces {
			v.subIO(q, p.member, p.msec, q.r.Data[p.boff:p.boff+p.n*disk.SectorSize], true, nil)
		}

	case full:
		// Whole row present in the request: parity is the XOR of the
		// new data, no reads needed even when a data member is dead.
		parity := make([]byte, cb)
		base := (lo - q.r.Sector) * disk.SectorSize
		for d := int64(0); d < dpr; d++ {
			xorInto(parity, q.r.Data[base+d*cb:base+(d+1)*cb])
		}
		if fi >= 0 {
			v.Stats.DegradedWrites++
		} else {
			v.Stats.FullStripeWrites++
		}
		for _, p := range pieces {
			if p.member == fi {
				continue // dead data member: its content lives in the parity
			}
			v.subIO(q, p.member, p.msec, q.r.Data[p.boff:p.boff+p.n*disk.SectorSize], true, nil)
		}
		v.subIO(q, pm, row*v.ss, parity, true, nil)

	case fi < 0:
		v.rmwRow(q, row, pieces)

	default:
		v.degradedRMWRow(q, row, pieces, fi)
	}
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

// rmwRow is the healthy partial-row write: read old data and old
// parity, fold the deltas, write new data and new parity.
func (v *Volume) rmwRow(q *volReq, row int64, pieces []piece) {
	v.Stats.ParityRMWRows++
	v.bus.Emit(telemetry.Event{
		T:      v.s.Now(),
		Kind:   telemetry.EvParityRMW,
		Sector: row * int64(len(v.members)-1) * v.ss,
		Blocks: int64(len(pieces)),
	})
	pm := v.parityMember(row)
	uo, un := v.rowUnion(row, pieces)
	oldD := make([][]byte, len(pieces))
	oldP := make([]byte, un*disk.SectorSize)
	rem := len(pieces) + 1
	data := q.r.Data

	phase2 := func(err error) {
		// Runs inside the final phase-one completion, which still holds
		// one pending slot on q, so the writes issued here cannot race
		// the request's retirement.
		if rem--; rem > 0 || err != nil || q.err != nil {
			return
		}
		newP := oldP
		for i, p := range pieces {
			nd := data[p.boff : p.boff+p.n*disk.SectorSize]
			po := (p.msec - row*v.ss - uo) * disk.SectorSize
			xorInto(newP[po:], oldD[i])
			xorInto(newP[po:], nd)
		}
		for _, p := range pieces {
			v.subIO(q, p.member, p.msec, data[p.boff:p.boff+p.n*disk.SectorSize], true, nil)
		}
		v.subIO(q, pm, row*v.ss+uo, newP, true, nil)
	}

	for i, p := range pieces {
		oldD[i] = make([]byte, p.n*disk.SectorSize)
		v.subIO(q, p.member, p.msec, oldD[i], false, phase2)
	}
	v.subIO(q, pm, row*v.ss+uo, oldP, false, phase2)
}

// degradedRMWRow writes a partial row while data member fi is dead:
// read the entire surviving row (data and parity), solve for the dead
// chunk, overlay the new data, and write survivors plus a freshly
// computed whole parity chunk.
func (v *Volume) degradedRMWRow(q *volReq, row int64, pieces []piece, fi int) {
	v.Stats.DegradedWrites++
	v.Stats.ParityRMWRows++
	v.bus.Emit(telemetry.Event{
		T:      v.s.Now(),
		Kind:   telemetry.EvParityRMW,
		Sector: row * int64(len(v.members)-1) * v.ss,
		Blocks: int64(len(pieces)),
		Dev:    v.members[fi].Name(),
	})
	nm := len(v.members)
	pm := v.parityMember(row)
	cb := v.ss * disk.SectorSize
	old := make([][]byte, nm) // whole old chunk per member, nil for fi
	rem := nm - 1
	data := q.r.Data

	phase2 := func(err error) {
		if rem--; rem > 0 || err != nil || q.err != nil {
			return
		}
		// Reconstruct the dead member's old chunk from the survivors.
		dead := make([]byte, cb)
		for m, b := range old {
			if m != fi {
				xorInto(dead, b)
			}
		}
		old[fi] = dead
		// Overlay the new data (the dead member's piece lands only in
		// this in-memory image — and thereby in the parity).
		for _, p := range pieces {
			copy(old[p.member][(p.msec-row*v.ss)*disk.SectorSize:], data[p.boff:p.boff+p.n*disk.SectorSize])
		}
		parity := make([]byte, cb)
		for m, b := range old {
			if m != pm {
				xorInto(parity, b)
			}
		}
		for _, p := range pieces {
			if p.member == fi {
				continue
			}
			v.subIO(q, p.member, p.msec, data[p.boff:p.boff+p.n*disk.SectorSize], true, nil)
		}
		v.subIO(q, pm, row*v.ss, parity, true, nil)
	}

	for m := 0; m < nm; m++ {
		if m == fi {
			continue
		}
		old[m] = make([]byte, cb)
		v.subIO(q, m, row*v.ss, old[m], false, phase2)
	}
}

// xorInto folds src into dst; len(src) must not exceed len(dst).
func xorInto(dst, src []byte) {
	subtle.XORBytes(dst, dst, src)
}
