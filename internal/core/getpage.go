package core

import (
	"ufsclust/internal/cpu"
	"ufsclust/internal/driver"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/vm"
)

// GetPage is the fault path: return the page at byte offset off of vn,
// reading (and possibly reading ahead) as the configured engine
// dictates. The returned page is not busy and holds valid data. A
// metadata read error (bmap could not reach an indirect block) is
// returned directly; a data read error is latched on the vnode by the
// completion handler — callers check vn.Err after waiting.
func (e *Engine) GetPage(p *sim.Proc, vn *Vnode, off int64) (*vm.Page, error) {
	return e.GetPageHint(p, vn, off, 1)
}

// GetPageHint is GetPage with the caller's total request size (in
// blocks from off) passed down — the Further Work "random clustering"
// hint, used only when Config.RandomClustering is on.
func (e *Engine) GetPageHint(p *sim.Proc, vn *Vnode, off int64, hintBlocks int) (*vm.Page, error) {
	e.Stats.GetPages++
	e.charge(p, cpu.GetPage, cpu.GetPageInstr)
	if e.Cfg.Clustered {
		return e.getpageClustered(p, vn, off, hintBlocks)
	}
	return e.getpageLegacy(p, vn, off)
}

// noHoles conservatively reports whether the file certainly has no
// holes: it holds at least as many fragments as its size needs.
func noHoles(e *Engine, vn *Vnode) bool {
	need := (vn.IP.D.Size + int64(e.FS.SB.Fsize) - 1) / int64(e.FS.SB.Fsize)
	return int64(vn.IP.D.Blocks) >= need
}

// getpageLegacy is Figure 2: block-at-a-time with one-block read-ahead
// driven by the nextr prediction.
func (e *Engine) getpageLegacy(p *sim.Proc, vn *Vnode, off int64) (*vm.Page, error) {
	sb := e.FS.SB
	lbn := sb.Lblkno(off)

	// bmap() to find disk location — called even for cached pages (the
	// UFS_HOLE problem), unless the Further Work optimization knows the
	// file has no holes.
	var fsbn int32
	var pg *vm.Page
	var cached bool
	if e.Cfg.SkipBmapOnHit && noHoles(e, vn) {
		e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
		pg, cached = e.VM.Lookup(vn, lbn*int64(sb.Bsize))
		if cached {
			e.Stats.BmapSkips++
		}
	}
	if !cached {
		var err error
		fsbn, _, err = e.FS.Bmap(p, vn.IP, lbn)
		if err != nil {
			vn.recordErr(err)
			return nil, err
		}
		e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
		pg, cached = e.VM.Lookup(vn, lbn*int64(sb.Bsize))
	}
	if cached {
		e.Stats.CacheHits++
		if pg.TakeRA() {
			e.Stats.RAHits++
		}
	} else {
		pg = e.startRead(p, vn, lbn, fsbn, 1, false)
	}

	// if (sequential I/O) start I/O for next page.
	seq := lbn == vn.IP.Nextr
	vn.seq = seq
	if seq && e.Cfg.ReadAhead {
		nlbn := lbn + 1
		if nlbn*int64(sb.Bsize) < vn.IP.D.Size {
			e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
			if _, ok := e.VM.Lookup(vn, nlbn*int64(sb.Bsize)); !ok {
				// do another bmap() if necessary.
				nfsbn, _, err := e.FS.Bmap(p, vn.IP, nlbn)
				if err == nil && nfsbn != 0 {
					e.startRead(p, vn, nlbn, nfsbn, 1, true)
				}
			}
		}
	}

	// if (first page was not in cache) wait for I/O to finish.
	pg.WaitUnbusy(p)
	// predict next I/O location.
	vn.IP.Nextr = lbn + 1
	return pg, nil
}

// getpageClustered is Figure 6: transfer whole clusters and read ahead a
// cluster at a time, tracked by nextrio.
func (e *Engine) getpageClustered(p *sim.Proc, vn *Vnode, off int64, hintBlocks int) (*vm.Page, error) {
	sb := e.FS.SB
	lbn := sb.Lblkno(off)

	seq := lbn == vn.IP.Nextr
	// The UFS_HOLE fast path: a cached page in a hole-free file needs
	// no bmap at all. (Read-ahead decisions still work from nextrio.)
	if e.Cfg.SkipBmapOnHit && !seq && noHoles(e, vn) {
		e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
		if pg, ok := e.VM.Lookup(vn, lbn*int64(sb.Bsize)); ok {
			e.Stats.BmapSkips++
			e.Stats.CacheHits++
			if pg.TakeRA() {
				e.Stats.RAHits++
			}
			vn.seq = false
			pg.WaitUnbusy(p)
			vn.IP.Nextr = lbn + 1
			return pg, nil
		}
	}

	fsbn, contig, err := e.FS.Bmap(p, vn.IP, lbn)
	if err != nil {
		vn.recordErr(err)
		return nil, err
	}
	// The transfer must fit the driver: a cluster is at most
	// min(maxcontig, maxphys/bsize) blocks.
	if max := e.maxClusterBlocks(); contig > max {
		contig = max
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
		e.Stats.CacheHits++
		if pg.TakeRA() {
			e.Stats.RAHits++
		}
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
		pg = e.startRead(p, vn, lbn, fsbn, n, false)
		edge = lbn + int64(n)
	}
	if e.Cfg.ReadAhead {
		// The paper's exact trigger: the demand cluster ends precisely
		// at the nextrio cursor (or we are at the start of the file).
		exact := lbn+int64(contig) == vn.IP.Nextrio || (lbn == 0 && vn.IP.Nextrio == 0)
		switch {
		case !cached && !seq && lbn != 0:
			// Random miss: collapse the policy's window and restart
			// the read-ahead trigger past this cluster.
			e.raCollapse(vn, lbn)
			vn.IP.Nextrio = lbn + int64(contig)
		case exact || (e.raVerbose() && lbn+int64(contig) > vn.IP.Nextrio):
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

	pg.WaitUnbusy(p)
	vn.IP.Nextr = lbn + 1
	return pg, nil
}

// raVerbose reports whether the configured policy gets its decisions
// emitted as ra_window events. The fixed default stays silent so
// default-policy event streams replay the pre-policy fixtures
// byte-for-byte.
func (e *Engine) raVerbose() bool {
	return e.Cfg.Prefetch != nil && e.Cfg.Prefetch.Name() != "fixed"
}

// raCollapse tells the policy the reader seeked away from the detected
// stream.
func (e *Engine) raCollapse(vn *Vnode, lbn int64) {
	e.Stats.RACollapses++
	e.policy().Random(vn.IP.Ino)
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
		ClusterBlocks: e.maxClusterBlocks(),
		BlockBytes:    int(sb.Bsize),
		FreePages:     e.VM.FreeMem(),
		MemLow:        e.VM.MemoryLow(),
		WriteHeadroom: -1,
	}
	if vn.IP.WriteSem != nil {
		lim.WriteHeadroom = vn.IP.WriteSem.Value()
	}
	dec := e.policy().Trigger(vn.IP.Ino, seq, lim)
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
	start := vn.IP.Nextrio
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
			vn.IP.Nextrio = start
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
		rfsbn, rcontig, err := e.FS.Bmap(p, vn.IP, start)
		if max := e.maxClusterBlocks(); rcontig > max {
			rcontig = max
		}
		if err != nil || rfsbn == 0 {
			break
		}
		e.startRead(p, vn, start, rfsbn, rcontig, true)
		start += int64(rcontig)
		vn.IP.Nextrio = start
		issued += rcontig
	}
	e.raWindow.Observe(int64(issued))
}

// startRead allocates pages for blocks [lbn, lbn+nblocks) that are not
// already cached and issues read I/O for them, splitting at cache hits
// and at the end of the file. It returns the (busy) page for lbn; with
// async true it does not wait for anything. Holes zero-fill without I/O.
func (e *Engine) startRead(p *sim.Proc, vn *Vnode, lbn int64, fsbn int32, nblocks int, async bool) *vm.Page {
	return e.startReadTagged(p, vn, lbn, fsbn, nblocks, async, false)
}

// startReadTagged is startRead with the transfers' driver-level vec tag
// under caller control: the vectored list-I/O read path marks its bufs
// so driver accounting can attribute them. The tag travels as a
// parameter, not engine state — Bmap and page allocation can block
// mid-issue, so concurrent processes interleave here.
func (e *Engine) startReadTagged(p *sim.Proc, vn *Vnode, lbn int64, fsbn int32, nblocks int, async, vtag bool) *vm.Page {
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
		for i := range pg.Data {
			pg.Data[i] = 0
		}
		pg.Unbusy()
		return pg
	}

	// Walk the extent, grouping consecutive uncached blocks into runs
	// and issuing one transfer per run. Cached blocks (e.g. left over
	// from the write that created the file, or from an overlapping
	// prefetch) are skipped.
	var first *vm.Page
	var pages []*vm.Page
	var sizes []int
	runStart := -1
	bytes := 0
	flush := func() {
		if len(pages) == 0 {
			return
		}
		// One transfer for the run, scattered to the pages at
		// completion (the hardware would use a page list; the copy in
		// the handler is simulation bookkeeping with no simulated
		// cost).
		xfer := make([]byte, bytes)
		e.Stats.ReadBlocks += int64(len(pages))
		pgs, szs := pages, sizes
		e.FS.Drv.Strategy(p, &driver.Buf{
			Blkno: sb.FsbToDb(fsbn + int32(runStart)*sb.Frag),
			Data:  xfer,
			Vec:   vtag,
			Iodone: func(b *driver.Buf) {
				if b.Err != nil {
					// The transfer never produced data: latch the error
					// on the vnode and release the pages zeroed, so the
					// waiters unblock and Read reports the failure.
					vn.recordErr(b.Err)
					for _, pg := range pgs {
						for j := range pg.Data {
							pg.Data[j] = 0
						}
						pg.ClearDirty()
						pg.Unbusy()
					}
					return
				}
				off := 0
				for i, pg := range pgs {
					n := szs[i]
					copy(pg.Data[:n], b.Data[off:off+n])
					for j := n; j < len(pg.Data); j++ {
						pg.Data[j] = 0
					}
					off += n
					pg.ClearDirty()
					pg.Unbusy()
				}
			},
		})
		pages, sizes, bytes, runStart = nil, nil, 0, -1
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
		if runStart < 0 {
			runStart = i
		}
		pages = append(pages, pg)
		sizes = append(sizes, bsize)
		bytes += bsize
	}
	flush()
	return first
}
