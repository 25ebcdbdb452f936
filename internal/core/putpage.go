package core

import (
	"ufsclust/internal/cpu"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/vm"
)

// PutPage is called when a written block is unmapped: hand the dirty
// page at byte offset off to the I/O system. The legacy engine starts
// the write immediately; the clustering engine "handles writes by
// assuming sequential I/O and pretending that the I/O completed
// immediately (in other words, do nothing)" until a cluster accumulates
// or the sequentiality assumption breaks (Figures 7 and 8).
func (e *Engine) PutPage(p *sim.Proc, vn *Vnode, off int64) {
	e.Stats.PutPages++
	e.charge(p, cpu.PutPage, cpu.PutPageInstr)
	if !e.Cfg.Clustered {
		e.push(p, vn, off, int64(e.FS.SB.Bsize), true, 0)
		return
	}
	bsize := int64(e.FS.SB.Bsize)
	maxBytes := int64(e.maxClusterBlocks()) * bsize

	ip := vn.IP
	if ip.Delaylen == 0 || ip.Delayoff+ip.Delaylen == off {
		// Sequential (or first): lie.
		if ip.Delaylen == 0 {
			ip.Delayoff = off
		}
		ip.Delaylen += bsize
		e.Stats.Lies++
		e.Bus.Emit(telemetry.Event{T: e.Sim.Now(), Kind: telemetry.EvWriteLie, LBN: off / bsize, Blocks: 1})
		if ip.Delaylen >= maxBytes {
			// A full cluster: write it, but only as far as the device's
			// last row boundary. What lies past it stays delayed and
			// opens the next window, so once the stream is under way
			// every push is whole rows. The window's end is taken first:
			// push can block on the write limit, and the pageout daemon
			// trims Delaylen meanwhile.
			end := ip.Delayoff + ip.Delaylen
			held := e.push(p, vn, ip.Delayoff, ip.Delaylen, true, e.FS.RowBlocks())
			ip.Delayoff, ip.Delaylen = end-held, held
		}
		return
	}
	// Sequentiality assumption was wrong: flush the old window and
	// start over with the current page.
	e.push(p, vn, ip.Delayoff, ip.Delaylen, true, 0)
	ip.Delayoff, ip.Delaylen = off, bsize
}

// push writes out the dirty cached pages in [off, off+length), grouping
// physically contiguous runs into single transfers (the while loop of
// Figure 8: "we do not know if the file is allocated contiguously until
// we try to write out the cluster"). limit applies the per-file write
// limit; the pageout daemon passes false so it can always make progress.
//
// row > 0 is the device's write unit in blocks (ufs.Fs.RowBlocks): the
// transfer that would finish the range stops at the last row boundary
// of the device instead, and push returns how many bytes at the end of
// the range it left dirty for the caller to keep delayed. With row 0
// everything is written and the result is 0.
func (e *Engine) push(p *sim.Proc, vn *Vnode, off, length int64, limit bool, row int) (held int64) {
	sb := e.FS.SB
	bsize := int64(sb.Bsize)
	e.Stats.Pushes++

	first := off / bsize
	lbn := first
	end := (off + length + bsize - 1) / bsize
	for lbn < end {
		// Find the next dirty, unlocked, cached page.
		e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
		pg, ok := e.VM.Lookup(vn, lbn*bsize)
		if !ok || !pg.Dirty() || pg.Busy() {
			lbn++
			continue
		}
		fsbn, contig, err := e.FS.Bmap(p, vn.IP, lbn)
		if err != nil {
			// An indirect block could not be read: the page's backing
			// location is unknowable. Latch the error and drop the page's
			// dirty bit — leaving it dirty would spin the pageout daemon
			// against the same failure forever.
			vn.recordErr(err)
			pg.ClearDirty()
			lbn++
			continue
		}
		if fsbn == 0 {
			panic("core: dirty page over a hole") // simlint:invariant -- writes allocate backing before dirtying
		}
		if !e.Cfg.Clustered {
			contig = 1
		}
		if max := e.maxClusterBlocks(); contig > max {
			contig = max
		}
		// A single transfer may never exceed the per-file write limit,
		// or its semaphore P could not be satisfied even by an empty
		// queue.
		if limit && vn.IP.WriteSem != nil {
			if lim := int(e.FS.WriteLimit / bsize); lim >= 1 && contig > lim {
				contig = lim
			}
		}
		if rem := int(end - lbn); contig > rem {
			contig = rem
		}
		if row > 0 && contig == int(end-lbn) && fsbn%sb.Frag == 0 {
			// Bmap has just said where this last run lies on the device,
			// so the cut costs no second translation. A run with no
			// boundary inside it is held back whole — joined by the blocks
			// that follow, it will reach one — unless it is all there is.
			tail := int((int64(fsbn/sb.Frag) + int64(contig)) % int64(row))
			if tail >= contig {
				tail = contig
				if lbn == first {
					tail = 0
				}
			}
			held += int64(tail) * bsize
			end -= int64(tail)
			if contig -= tail; contig == 0 {
				break
			}
		}
		// Gather the dirty run within the contiguous extent.
		var pages []*vm.Page
		var sizes []int
		bytes := 0
		for i := 0; i < contig; i++ {
			bl := lbn + int64(i)
			var q *vm.Page
			if i == 0 {
				q = pg
			} else {
				var ok2 bool
				q, ok2 = e.VM.Lookup(vn, bl*bsize)
				if !ok2 || !q.Dirty() || q.Busy() {
					break
				}
			}
			n := sb.BlkSize(vn.IP.D.Size, bl)
			if n <= 0 {
				break
			}
			q.SetBusy()
			pages = append(pages, q)
			sizes = append(sizes, n)
			bytes += n
		}
		if len(pages) == 0 {
			lbn++
			continue
		}

		xfer := make([]byte, bytes)
		o := 0
		for i, q := range pages {
			copy(xfer[o:], q.Data[:sizes[i]])
			o += sizes[i]
		}
		if limit {
			vn.writeStarted(p, int64(bytes))
		} else {
			vn.pending += int64(bytes)
		}
		e.Bus.Emit(telemetry.Event{
			T:      e.Sim.Now(),
			Kind:   telemetry.EvClusterPush,
			LBN:    lbn,
			Blocks: int64(len(pages)),
			Bytes:  int64(bytes),
			Write:  true,
		})
		e.Stats.WriteIOs++
		e.Stats.WriteBlocks += int64(len(pages))
		pgs := pages
		nbytes := int64(bytes)
		limited := limit
		e.FS.Drv.Strategy(p, &driver.Buf{
			Blkno: sb.FsbToDb(fsbn),
			Data:  xfer,
			Write: true,
			Iodone: func(b *driver.Buf) {
				if b.Err != nil {
					// Data never reached the platter: latch the error so
					// Fsync reports it. The pages still unbusy and drop
					// their dirty bits — repushing would only refail.
					vn.recordErr(b.Err)
				}
				for _, q := range pgs {
					q.ClearDirty()
					q.Unbusy()
				}
				if limited {
					vn.writeDone(nbytes)
				} else {
					vn.pending -= nbytes
					if vn.pending == 0 {
						vn.pendingWait.WakeAll()
					}
				}
			},
		})
		lbn += int64(len(pages))
	}
	return held
}

// PageOut implements vm.Object: the pageout daemon found this dirty
// page while laundering memory. The engine clusters around it when
// clustering is on (and removes the written range from the delayed
// window so a later putpage does not double-push it).
func (vn *Vnode) PageOut(p *sim.Proc, pg *vm.Page) {
	e := vn.eng
	e.Stats.DaemonPushes++
	// The daemon marked pg busy to claim it; release that claim and let
	// push's own locking take over.
	pg.Unbusy()
	bsize := int64(e.FS.SB.Bsize)
	length := bsize
	if e.Cfg.Clustered {
		length = int64(e.maxClusterBlocks()) * bsize
	}
	// Trim the delayed window if we are writing part of it.
	ip := vn.IP
	if ip.Delaylen > 0 && pg.Off >= ip.Delayoff && pg.Off < ip.Delayoff+ip.Delaylen {
		ip.Delaylen = pg.Off - ip.Delayoff
	}
	e.push(p, vn, pg.Off, length, false, 0)
}
