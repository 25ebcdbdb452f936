package core

import (
	"ufsclust/internal/cpu"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/vm"
)

// GetPage is the fault path: return the page at byte offset off of vn,
// reading (and possibly reading ahead) as the configured engine
// dictates. The returned page holds valid data and is held: the caller
// ends the hold with Unbusy once it has copied or dirtied the bytes. A
// metadata read error (bmap could not reach an indirect block) is
// returned directly; a data read error is latched on the vnode by the
// completion handler — callers check vn.Err once GetPage returns.
func (e *Engine) GetPage(p *sim.Proc, vn *Vnode, off int64) (*vm.Page, error) {
	return e.GetPageHint(p, vn, off, 1)
}

// GetPageHint is GetPage with the caller's total request size (in
// blocks from off) passed down — the Further Work "random clustering"
// hint, used only when Config.RandomClustering is on.
//
// The engines issue read-ahead before the demand page is held (DESIGN.md
// "Page holds"), so the one Hold at the end can find it recycled, and the
// fault runs again. A hole's zero-filled page comes back already held.
func (e *Engine) GetPageHint(p *sim.Proc, vn *Vnode, off int64, hintBlocks int) (*vm.Page, error) {
	e.Stats.GetPages++
	e.charge(p, cpu.GetPage, cpu.GetPageInstr)
	getpage, lbn := e.getpageLegacy, e.FS.SB.Lblkno(off)
	if e.Cfg.Clustered {
		getpage = e.getpageClustered
	}
	for {
		pg, held, err := getpage(p, vn, off, hintBlocks)
		if err != nil {
			return nil, err
		}
		if held || e.VM.Hold(p, pg, vn, lbn*int64(e.FS.SB.Bsize)) {
			vn.nextr = lbn + 1 // predict next I/O location.
			return pg, nil
		}
	}
}

// getpageLegacy is Figure 2: block-at-a-time with one-block read-ahead
// driven by the nextr prediction.
func (e *Engine) getpageLegacy(p *sim.Proc, vn *Vnode, off int64, _ int) (pg *vm.Page, held bool, err error) {
	sb := e.FS.SB
	lbn := sb.Lblkno(off)

	// bmap() to find disk location — called even for cached pages (the
	// UFS_HOLE problem).
	fsbn, _, err := e.bmap(p, vn, lbn)
	if err != nil {
		vn.recordErr(err)
		return nil, false, err
	}
	e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
	pg, cached := e.VM.Lookup(vn, lbn*int64(sb.Bsize))
	if cached {
		e.cacheHit(pg)
	} else {
		pg, held = e.startRead(p, vn, lbn, fsbn, 1, false, false), fsbn == 0
	}

	// if (sequential I/O) start I/O for next page.
	seq := lbn == vn.nextr
	vn.seq = seq
	if seq && e.Cfg.Prefetch != nil {
		nlbn := lbn + 1
		if nlbn*int64(sb.Bsize) < vn.IP.D.Size {
			e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
			if _, ok := e.VM.Lookup(vn, nlbn*int64(sb.Bsize)); !ok {
				// do another bmap() if necessary.
				nfsbn, _, err := e.bmap(p, vn, nlbn)
				if err == nil && nfsbn != 0 {
					e.startRead(p, vn, nlbn, nfsbn, 1, true, false)
				}
			}
		}
	}

	// if (first page was not in cache) wait for I/O to finish: the
	// caller's Hold does.
	return pg, held, nil
}

// getpageClustered is Figure 6: transfer whole clusters and read ahead a
// cluster at a time, tracked by nextrio.
func (e *Engine) getpageClustered(p *sim.Proc, vn *Vnode, off int64, hintBlocks int) (pg *vm.Page, held bool, err error) {
	sb := e.FS.SB
	lbn := sb.Lblkno(off)

	seq := lbn == vn.nextr
	fsbn, contig, err := e.bmap(p, vn, lbn)
	if err != nil {
		vn.recordErr(err)
		return nil, false, err
	}

	e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
	vn.seq = seq
	pg, cached := e.VM.Lookup(vn, lbn*int64(sb.Bsize))
	// edge is the first block past what this access is known to cover:
	// the demand cluster on a miss, just this block on a cache hit. A
	// loose-triggered window starts here so it never skips uncovered
	// blocks (the bmap run can reach past what demand actually read).
	edge := lbn + 1
	if cached {
		e.cacheHit(pg)
	} else {
		// Demand-read the effective cluster when the access pattern is
		// sequential; a random miss reads one block ("clustering is
		// currently enabled only when sequential access is detected"),
		// unless the random-clustering hint says the caller wants more.
		n := contig
		if !seq && lbn != 0 {
			n = 1
			if e.Cfg.RandomClustering && hintBlocks > 1 {
				n = hintBlocks
				if n > contig {
					n = contig
				}
				e.Stats.HintClusters++
			}
		}
		pg, held = e.startRead(p, vn, lbn, fsbn, n, false, false), fsbn == 0
		edge = lbn + int64(n)
	}
	if e.Cfg.Prefetch != nil {
		// The paper's exact trigger: the demand cluster ends precisely
		// at the nextrio cursor (or we are at the start of the file).
		exact := lbn+int64(contig) == vn.nextrio || (lbn == 0 && vn.nextrio == 0)
		switch {
		case !cached && !seq && lbn != 0:
			// Random miss: collapse the policy's window and restart
			// the read-ahead trigger past this cluster.
			e.raCollapse(vn, lbn)
			vn.nextrio = lbn + int64(contig)
		case exact || (e.raVerbose() && lbn+int64(contig) > vn.nextrio):
			// We are at the start of the last prefetched cluster (or
			// at the very beginning): the read-ahead trigger point.
			// The policy sizes the window; the engine issues it. "It
			// remembers where to start the next read ahead by setting
			// nextrio to the current location plus the size of the
			// current cluster."
			//
			// The exact condition has a blind spot on contiguous
			// layouts: bmap runs are maxcontig long from any offset,
			// so after a random seek resets the cursor, lbn+contig
			// sweeps permanently ahead of it and read-ahead stays dead
			// until the next seek. Non-fixed policies therefore also
			// fire on the runway form — the demand cluster reaching or
			// passing the cursor — and their own detector, not cursor
			// luck, decides whether anything is issued.
			e.raTrigger(p, vn, lbn, contig, seq, edge, exact)
		}
	}
	return pg, held, nil
}

// raVerbose reports whether the configured policy gets its decisions
// emitted as ra_window events. The fixed default stays silent so
// default-policy event streams replay the pre-policy fixtures
// byte-for-byte.
func (e *Engine) raVerbose() bool {
	return e.Cfg.Prefetch != nil && e.Cfg.Prefetch.Name() != "fixed"
}

// raCollapse zeroes the file's detector: the reader seeked away from
// the detected stream, which must re-confirm before prefetch resumes.
func (e *Engine) raCollapse(vn *Vnode, lbn int64) {
	e.Stats.RACollapses++
	vn.ra = prefetch.State{}
	if e.raVerbose() {
		e.Bus.Emit(telemetry.Event{T: e.Sim.Now(), Kind: telemetry.EvRAWindow, LBN: lbn})
	}
}

// raTrigger runs one read-ahead decision at the trigger point: consult
// the policy with the live resource limits, then issue the granted
// window cluster by cluster from the nextrio cursor. With the fixed
// policy this is instruction-for-instruction the paper's one-cluster
// prefetch. edge is the first block past what the triggering access
// covered; exact reports which form of the trigger predicate matched.
func (e *Engine) raTrigger(p *sim.Proc, vn *Vnode, lbn int64, contig int, seq bool, edge int64, exact bool) {
	sb := e.FS.SB
	e.Stats.RATriggers++
	lim := prefetch.Limits{
		ClusterBlocks: e.FS.ClusterBlocks(),
		BlockBytes:    int(sb.Bsize),
		FreePages:     e.VM.FreeMem(),
		MemLow:        e.VM.MemoryLow(),
		WriteHeadroom: -1,
	}
	if vn.wsem != nil {
		lim.WriteHeadroom = vn.wsem.Value()
	}
	dec := e.Cfg.Prefetch.Trigger(&vn.ra, seq, lim)
	if dec.ClampedMem {
		e.Stats.RAClampMem++
	}
	if dec.ClampedSem {
		e.Stats.RAClampSem++
	}

	// The window starts where the runway ends. An exact-match trigger
	// uses the paper's formula — the cursor, or the demand cluster's end
	// at the start of the file — unchanged from the pre-policy engine. A
	// loose trigger starts at the covered edge instead: the bmap run can
	// reach past what demand actually read (a cached trigger read
	// nothing), and starting at lbn+contig there would skip blocks the
	// reader still needs. The issue walk skips any cached prefix, so a
	// conservative edge costs lookups, never duplicate I/O.
	start := vn.nextrio
	if exact {
		if end := lbn + int64(contig); end > start {
			start = end
		}
	} else if edge > start {
		start = edge
	}
	if dec.Clusters == 0 {
		// Nothing granted (unconfirmed stream, or a non-sequential
		// access that happened to reach the trigger). Re-arm the cursor
		// at the runway edge for a confirmed-sequential caller; the
		// runway predicate keeps the trigger reachable either way. The
		// fixed policy never grants zero, so this branch never runs for
		// the default engine.
		if seq {
			vn.nextrio = start
		}
		e.raWindow.Observe(0)
		return
	}
	if e.raVerbose() {
		e.Bus.Emit(telemetry.Event{T: e.Sim.Now(), Kind: telemetry.EvRAWindow,
			LBN: start, Blocks: int64(dec.Clusters * lim.ClusterBlocks), Depth: int64(dec.Confidence)})
	}
	issued := 0
	for c := 0; c < dec.Clusters; c++ {
		if start*int64(sb.Bsize) >= vn.IP.D.Size {
			break
		}
		rfsbn, rcontig, err := e.bmap(p, vn, start)
		if err != nil || rfsbn == 0 {
			break
		}
		e.startRead(p, vn, start, rfsbn, rcontig, true, false)
		start += int64(rcontig)
		vn.nextrio = start
		issued += rcontig
	}
	e.raWindow.Observe(int64(issued))
}

// startRead allocates pages for blocks [lbn, lbn+nblocks) that are not
// already cached and issues read I/O for them, splitting at cache hits
// and at the end of the file. It returns the page for lbn, busy until its
// read completes; with async true it does not wait for anything. A hole
// zero-fills one page without I/O and returns it still held.
// vtag marks the transfers for the driver's list-I/O accounting (the
// vectored read path). It travels as a parameter, not engine state:
// Bmap and page allocation can block mid-issue, so concurrent processes
// interleave here.
func (e *Engine) startRead(p *sim.Proc, vn *Vnode, lbn int64, fsbn int32, nblocks int, async, vtag bool) *vm.Page {
	sb := e.FS.SB
	if async {
		e.Stats.AsyncReads++
		// Report only what this prefetch will actually put on the wire:
		// the walk below skips cached blocks and stops at EOF, so a
		// read_ahead event sized by the requested span would overstate
		// the issued I/O. The pre-count uses the side-effect-free cache
		// peek — the walk's own Lookups (which reclaim and count) are
		// unchanged. A fully cached span emits nothing.
		issue := 0
		for i := 0; i < nblocks; i++ {
			bl := lbn + int64(i)
			if sb.BlkSize(vn.IP.D.Size, bl) <= 0 {
				break
			}
			if !e.VM.Cached(vn, bl*int64(sb.Bsize)) {
				issue++
			}
		}
		if issue > 0 {
			e.Bus.Emit(telemetry.Event{T: e.Sim.Now(), Kind: telemetry.EvReadAhead, LBN: lbn, Blocks: int64(issue)})
		}
	} else {
		e.Stats.SyncReads++
		e.Bus.Emit(telemetry.Event{T: e.Sim.Now(), Kind: telemetry.EvSyncRead, LBN: lbn, Blocks: int64(nblocks)})
	}

	if fsbn == 0 {
		// A hole: supply zeros, no backing I/O.
		e.Stats.ZeroFills++
		pg := e.VM.Alloc(p, vn, lbn*int64(sb.Bsize))
		e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
		e.charge(p, cpu.Copy, cpu.ZeroInstrPerByte*int64(sb.Bsize))
		clear(pg.Data)
		return pg
	}

	// Walk the extent, grouping consecutive uncached blocks into runs
	// and issuing one transfer per run. Cached blocks (e.g. left over
	// from the write that created the file, or from an overlapping
	// prefetch) are skipped.
	var first *vm.Page
	var run pageRun
	runStart := 0
	flush := func() {
		if len(run.pages) > 0 {
			e.transfer(p, vn, fsbn+int32(runStart)*sb.Frag, run, false, false, vtag)
			run = pageRun{}
		}
	}
	for i := 0; i < nblocks; i++ {
		bl := lbn + int64(i)
		bsize := sb.BlkSize(vn.IP.D.Size, bl)
		if bsize <= 0 {
			break
		}
		if pg, ok := e.VM.Lookup(vn, bl*int64(sb.Bsize)); ok {
			if i == 0 {
				first = pg
			}
			flush()
			continue
		}
		pg := e.VM.Alloc(p, vn, bl*int64(sb.Bsize))
		if async {
			// Tag the page so telemetry can tell a prefetch hit
			// (TakeRA at the demand sites) from prefetch waste (the
			// VM counts tagged pages it recycles unreferenced).
			pg.MarkRA()
		}
		if i == 0 {
			first = pg
		}
		if len(run.pages) == 0 {
			runStart = i
		}
		run.add(pg, bsize)
	}
	flush()
	return first
}
