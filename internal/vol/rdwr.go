package vol

import (
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

// of returns the piece's bytes within the request's data.
func (p piece) of(data []byte) []byte { return data[p.boff : p.boff+p.n*disk.SectorSize] }

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
// in logical order, splitting at every interleave-unit boundary (a
// whole member for a concat, a stripe unit otherwise). boff is the byte
// offset of lsec within the request's Data.
func (v *Volume) mapData(lsec, n, boff int64) []piece {
	unit, nm := v.ss, int64(len(v.members))
	if v.cfg.Level == Concat {
		unit = v.msize
	}
	ps := make([]piece, 0, (lsec%unit+n+unit-1)/unit)
	for n > 0 {
		t, o := lsec/unit, lsec%unit // unit index, offset within it
		p := piece{boff: boff, n: min(unit-o, n)}
		switch v.cfg.Level {
		case Concat:
			p.member, p.msec = int(t), o
		case RAID0:
			p.member, p.msec = int(t%nm), (t/nm)*unit+o
		case RAID5:
			row := t / (nm - 1) // one chunk per row is parity
			p.member, p.msec = v.dataMember(row, int(t%(nm-1))), row*unit+o
		default:
			// RAID-1 member addresses equal logical addresses; mirroring
			// is decided at issue time, not by the mapping.
			panic("vol: mapData on mirror") // simlint:invariant -- issueRead/issueWrite special-case RAID1
		}
		ps = append(ps, p)
		lsec, n, boff = lsec+p.n, n-p.n, boff+p.n*disk.SectorSize
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
			v.subIO(q, run.member, run.msec, run.pieces[0].of(data), write, nil)
			continue
		}
		buf := make([]byte, run.n*disk.SectorSize)
		if write {
			off := int64(0)
			for _, p := range run.pieces {
				off += int64(copy(buf[off:], p.of(data)))
			}
			v.subIO(q, run.member, run.msec, buf, true, nil)
			continue
		}
		pieces := run.pieces
		v.subIO(q, run.member, run.msec, buf, false, func(err error) {
			if err == nil {
				scatter(data, pieces, buf)
			}
		})
	}
}

// scatter copies a run's member-contiguous bytes out to its pieces'
// places in the request's data.
func scatter(data []byte, pieces []piece, buf []byte) {
	for _, p := range pieces {
		buf = buf[copy(p.of(data), buf):]
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
// reconstruction (planReconstruct) from every surviving spindle.
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
	pl, ok := v.planReconstruct(run.member, run.msec, rb)
	if !ok {
		v.fail(q, disk.ErrMedia)
		return
	}
	solve := pl.fold
	pl.fold = func(survivors []xfer) {
		solve(survivors)
		scatter(q.r.Data, run.pieces, rb)
	}
	v.runPlan(q, pl)
}

// runPlan is the timed executor of a plan: it issues the reads, and
// from the completion of the last one — which still holds a pending
// slot on q, so phase two cannot race the request's retirement — folds
// and issues the writes. A failed read, this one or an earlier one
// already latched in q.err, abandons phase two.
func (v *Volume) runPlan(q *volReq, pl plan) {
	if len(pl.reads) == 0 {
		v.phaseTwo(q, pl)
		return
	}
	rem := len(pl.reads)
	hook := func(err error) {
		if rem--; rem > 0 || err != nil || q.err != nil {
			return
		}
		v.phaseTwo(q, pl)
	}
	for _, r := range pl.reads {
		v.subIO(q, r.member, r.msec, r.buf, false, hook)
	}
}

// phaseTwo folds what phase one read and issues pl's writes.
func (v *Volume) phaseTwo(q *volReq, pl plan) {
	if pl.fold != nil {
		pl.fold(pl.reads)
	}
	for _, w := range pl.writes {
		v.subIO(q, w.member, w.msec, w.buf, true, nil)
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
		// The rows a write holds locked (issue) are the rows it writes.
		for row := q.lockLo; row <= q.lockHi; row++ {
			v.writeRow(q, row)
		}
	}
}

// writeRow plans the part of one RAID-5 stripe row q covers (see
// planRow for the disciplines), accounts for it, and runs the plan.
func (v *Volume) writeRow(q *volReq, row int64) {
	pl := v.planRow(row, q.r.Sector, q.r.Data)
	if pl.dead >= 0 {
		v.Stats.DegradedWrites++
	} else if pl.kind == fullStripe {
		v.Stats.FullStripeWrites++
	}
	if len(pl.reads) > 0 {
		v.Stats.ParityRMWRows++
		ev := telemetry.Event{
			T:      v.s.Now(),
			Kind:   telemetry.EvParityRMW,
			Sector: row * int64(len(v.members)-1) * v.ss,
			Blocks: int64(pl.npiece),
		}
		if pl.dead >= 0 {
			ev.Dev = v.members[pl.dead].Name()
		}
		v.bus.Emit(ev)
	}
	v.runPlan(q, pl)
}
