package core

import (
	"fmt"

	"ufsclust/internal/cpu"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/vec"
)

// This file is the vectored-I/O half of the rdwr layer: Readv/Writev
// over offset–length lists, dispatched through a vec.Strategy to one of
// the three classic implementations (naive per-piece, data sieving,
// true list I/O — see internal/vec). The scalar paths in rdwr.go keep
// the mechanism: page cache, cluster reads, the delayed-write window.
//
// Buffer convention: the flat buffer is laid out by the vector, element
// i occupying buf[sum(len_0..len_{i-1}) : ... + len_i] regardless of
// how much of it EOF lets a read deliver — the POSIX iovec list
// flattened. The returned count is the bytes actually moved.
//
// Degeneration contract: a vector with exactly one non-zero-length
// element is serviced by the scalar Read/Write before any vectored
// accounting, charging, or events — so single-element vectored
// workloads replay the pre-vec golden streams byte-for-byte.

// segOffsets returns each element's start offset in the flat buffer.
func segOffsets(v []vec.Ext) []int64 {
	segs := make([]int64, len(v))
	var off int64
	for i, el := range v {
		segs[i] = off
		off += el.Len
	}
	return segs
}

// vecShape validates v against the flat buffer and classifies the
// request: live is the number of non-zero-length elements, solo the
// index of the only one (when live == 1) and soloOff its start in the
// flat buffer.
func vecShape(v []vec.Ext, flat int) (live, solo int, soloOff int64, err error) {
	var payload int64
	solo = -1
	for i, el := range v {
		if el.Off < 0 || el.Len < 0 {
			return 0, 0, 0, fmt.Errorf("core: vector element %d has negative offset or length (%d,%d)", i, el.Off, el.Len)
		}
		if el.Len > 0 {
			live++
			solo, soloOff = i, payload
		}
		payload += el.Len
	}
	if int64(flat) < payload {
		return 0, 0, 0, fmt.Errorf("core: buffer is %d bytes, vector payload is %d", flat, payload)
	}
	return live, solo, soloOff, nil
}

// Readv reads the vector's extents into buf (laid out per the buffer
// convention above) and returns the bytes delivered. Holes read as
// zeros; extents at or past EOF deliver nothing. The configured
// vec.Strategy picks the mechanism per call.
func (f *File) Readv(p *sim.Proc, v []vec.Ext, buf []byte) (int, error) {
	e, vn := f.eng, f.vn
	live, solo, soloOff, err := vecShape(v, len(buf))
	if err != nil {
		return 0, err
	}
	if live == 0 {
		return 0, vn.Err()
	}
	if live == 1 {
		// Single-element degeneration: exactly the scalar path, with no
		// vec accounting or events in front of it.
		return f.Read(p, v[solo].Off, buf[soloOff:soloOff+v[solo].Len])
	}
	if err := vn.Err(); err != nil {
		return 0, err
	}
	e.charge(p, cpu.Syscall, cpu.SyscallInstr)
	nm, err := vec.Normalize(v)
	if err != nil {
		return 0, err
	}
	m := e.vecStrategy().Pick(nm, false)
	f.vecAccount(nm, m, false)
	segs := segOffsets(v)
	switch m {
	case vec.Sieve:
		return f.readvSieve(p, v, segs, buf, nm)
	case vec.List:
		return f.readvList(p, v, segs, buf, nm)
	default:
		return f.readvNaive(p, v, segs, buf)
	}
}

// Writev writes the vector's extents from data (same buffer layout)
// and returns the payload bytes consumed. Overlapping elements apply
// in vector order: the later element wins, whatever the mechanism.
func (f *File) Writev(p *sim.Proc, v []vec.Ext, data []byte) (int, error) {
	e, vn := f.eng, f.vn
	live, solo, soloOff, err := vecShape(v, len(data))
	if err != nil {
		return 0, err
	}
	if live == 0 {
		return 0, vn.Err()
	}
	if live == 1 {
		return f.Write(p, v[solo].Off, data[soloOff:soloOff+v[solo].Len])
	}
	if err := vn.Err(); err != nil {
		return 0, err
	}
	e.charge(p, cpu.Syscall, cpu.SyscallInstr)
	nm, err := vec.Normalize(v)
	if err != nil {
		return 0, err
	}
	m := e.vecStrategy().Pick(nm, true)
	f.vecAccount(nm, m, true)
	segs := segOffsets(v)
	switch m {
	case vec.Sieve:
		return f.writevSieve(p, v, segs, data, nm)
	case vec.List:
		return f.writevList(p, v, segs, data, nm)
	default:
		return f.writevNaive(p, v, segs, data)
	}
}

// vecAccount records one dispatched vectored call: the counters and the
// single vec_io event (emitted once per call, so same-seed streams
// replay byte-identically).
func (f *File) vecAccount(n vec.Norm, m vec.Method, write bool) {
	e := f.eng
	e.Stats.VecCalls++
	e.Stats.VecRuns += int64(len(n.Runs))
	e.Stats.VecCoalesced += int64(n.Coalesced)
	e.Bus.Emit(telemetry.Event{
		T:      e.Sim.Now(),
		Kind:   telemetry.EvVecIO,
		LBN:    e.FS.SB.Lblkno(n.Lo),
		Bytes:  n.Payload,
		Blocks: int64(len(n.Runs)),
		Depth:  int64(m),
		Write:  write,
	})
}

// readvNaive services each element with its own scalar Read, in vector
// order — the per-piece baseline, paying a full syscall per element.
func (f *File) readvNaive(p *sim.Proc, v []vec.Ext, segs []int64, buf []byte) (int, error) {
	total := 0
	for i, el := range v {
		if el.Len == 0 {
			continue
		}
		n, err := f.Read(p, el.Off, buf[segs[i]:segs[i]+el.Len])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// readvSieve reads the covering envelope once and scatters the elements
// out of it in memory. The envelope read goes through the scalar Read,
// so it clusters, prefetches, and free-behinds like any sequential
// scan; the price is the gap bytes it drags along, counted as
// sieve_waste.
func (f *File) readvSieve(p *sim.Proc, v []vec.Ext, segs []int64, buf []byte, n vec.Norm) (int, error) {
	e, vn := f.eng, f.vn
	env := make([]byte, n.Span)
	got, err := f.Read(p, n.Lo, env)
	if err != nil {
		return 0, err
	}
	// Waste = envelope bytes moved beyond the distinct payload the file
	// could supply (the gaps between runs, clipped at EOF like the read).
	lim := n.Lo + int64(got)
	var covered int64
	for _, r := range n.Runs {
		end := min(r.End(), lim)
		if end > r.Off {
			covered += end - r.Off
		}
	}
	if w := int64(got) - covered; w > 0 {
		e.Stats.SieveWaste += w
	}
	// Scatter: the second memory copy is sieving's real CPU cost.
	total := 0
	for i, el := range v {
		if el.Len == 0 || el.Off >= lim {
			continue
		}
		nn := min(el.Len, lim-el.Off)
		e.charge(p, cpu.Copy, cpu.CopyInstrPerByte*nn)
		copy(buf[segs[i]:segs[i]+nn], env[el.Off-n.Lo:el.Off-n.Lo+nn])
		total += int(nn)
	}
	return total, vn.Err()
}

// readvList is true list I/O: issue one demand transfer per merged
// run's bmap extents — none of them waiting, so the whole request is in
// the driver queue before the first copy blocks and the elevator sweeps
// it in one pass — then gather per element once the pages land. The
// envelope's gaps are never transferred.
func (f *File) readvList(p *sim.Proc, v []vec.Ext, segs []int64, buf []byte, n vec.Norm) (int, error) {
	e, vn := f.eng, f.vn
	sb := e.FS.SB
	bs := int64(sb.Bsize)
	size := vn.IP.D.Size

	// Issue phase: walk each run in offset order, one bmap per disk
	// extent, capping transfers at the cluster limit. startReadTagged
	// skips cached blocks and marks the bufs for driver accounting.
	// planned tracks the first block no run has covered yet: two runs
	// split by a sub-block gap share a block, which must be issued once.
	var planned int64
	for _, r := range n.Runs {
		if r.Off >= size {
			break // runs are sorted; everything further is past EOF
		}
		lbn := max(sb.Lblkno(r.Off), planned)
		end := sb.Lblkno(min(r.End(), size)-1) + 1
		if end <= lbn {
			continue
		}
		for lbn < end {
			e.charge(p, cpu.MapUnmap, cpu.MapBlockInstr)
			fsbn, contig, err := e.FS.Bmap(p, vn.IP, lbn)
			if err != nil {
				vn.recordErr(err)
				return 0, err
			}
			nb := int(end - lbn)
			if fsbn == 0 {
				// A hole zero-fills block by block; skip cached pages so
				// the allocation below never collides.
				if e.VM.Cached(vn, lbn*bs) {
					lbn++
					continue
				}
				nb = 1
			} else {
				if contig < nb {
					nb = contig
				}
				if max := e.maxClusterBlocks(); nb > max {
					nb = max
				}
			}
			e.startReadTagged(p, vn, lbn, fsbn, nb, false, true)
			lbn += int64(nb)
		}
		planned = end
	}

	// Gather phase: per element, wait on each page and copy out. A page
	// evicted between issue and gather (memory pressure) faults back in
	// through the ordinary path.
	total := 0
	for i, el := range v {
		if el.Len == 0 || el.Off >= size {
			continue
		}
		avail := min(el.Len, size-el.Off)
		seg := buf[segs[i] : segs[i]+avail]
		var done int64
		for done < avail {
			off := el.Off + done
			boff := off % bs
			nn := min(bs-boff, avail-done)
			e.charge(p, cpu.PageCache, cpu.PageLookupInstr)
			pg, ok := e.VM.Lookup(vn, off-boff)
			if !ok {
				var err error
				pg, err = e.GetPage(p, vn, off-boff)
				if err != nil {
					return total, err
				}
			}
			pg.WaitUnbusy(p)
			if err := vn.Err(); err != nil {
				return total, err
			}
			pg.Touch()
			e.charge(p, cpu.Copy, cpu.CopyInstrPerByte*nn)
			copy(seg[done:done+nn], pg.Data[boff:boff+nn])
			done += nn
			total += int(nn)
		}
	}
	return total, vn.Err()
}

// writevNaive services each element with its own scalar Write, in
// vector order.
func (f *File) writevNaive(p *sim.Proc, v []vec.Ext, segs []int64, data []byte) (int, error) {
	total := 0
	for i, el := range v {
		if el.Len == 0 {
			continue
		}
		n, err := f.Write(p, el.Off, data[segs[i]:segs[i]+el.Len])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// writevSieve is the read-modify-write form of data sieving: read the
// envelope's existing bytes back, overlay the elements in vector order,
// and write the whole envelope in one sequential sweep. Gaps inside the
// envelope that lie beyond EOF are written as zeros — the result is
// contents-equivalent to the other mechanisms but fills what they would
// have left as holes (see DESIGN.md "Vectored I/O" for the equivalence
// rules). Both the read-back and the gap bytes count as sieve_waste.
func (f *File) writevSieve(p *sim.Proc, v []vec.Ext, segs []int64, data []byte, n vec.Norm) (int, error) {
	e, vn := f.eng, f.vn
	env := make([]byte, n.Span)
	if size := vn.IP.D.Size; n.Lo < size {
		got, err := f.Read(p, n.Lo, env[:min(n.Span, size-n.Lo)])
		if err != nil {
			return 0, err
		}
		e.Stats.SieveWaste += int64(got)
	}
	var distinct int64
	for _, r := range n.Runs {
		distinct += r.Len
	}
	e.Stats.SieveWaste += n.Span - distinct
	// Overlay: the gather copy is sieving's extra CPU cost.
	for i, el := range v {
		if el.Len == 0 {
			continue
		}
		e.charge(p, cpu.Copy, cpu.CopyInstrPerByte*el.Len)
		copy(env[el.Off-n.Lo:], data[segs[i]:segs[i]+el.Len])
	}
	if _, err := f.Write(p, n.Lo, env); err != nil {
		return 0, err
	}
	return int(n.Payload), nil
}

// writevList writes each merged run with one scalar Write, assembling
// the run's bytes from its member elements first (ascending vector
// order, so later elements win overlaps). Runs have no interior gaps by
// construction, so nothing beyond the payload touches the disk; the
// delayed-write window coalesces the runs into cluster pushes exactly
// as it does for scalar writes.
func (f *File) writevList(p *sim.Proc, v []vec.Ext, segs []int64, data []byte, n vec.Norm) (int, error) {
	for _, r := range n.Runs {
		run := data[segs[r.Members[0]] : segs[r.Members[0]]+r.Len]
		if len(r.Members) > 1 {
			// Assemble overlapping/abutting members into one scratch run.
			// The gather itself is bookkeeping for the page list the
			// hardware would chain — no simulated cost; the real copy is
			// charged inside Write.
			run = make([]byte, r.Len)
			for _, mi := range r.Members {
				el := v[mi]
				copy(run[el.Off-r.Off:], data[segs[mi]:segs[mi]+el.Len])
			}
		}
		if _, err := f.Write(p, r.Off, run); err != nil {
			return 0, err
		}
	}
	return int(n.Payload), nil
}
