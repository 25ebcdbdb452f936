// Package iobench reimplements the paper's IObench workload: sequential
// and random reads, writes, and updates of a large file through the file
// system, reported in KB/second of virtual time. The five I/O types are
// named as in Figure 10: the first letter means File system, the second
// Sequential or Random, the third Read, Write, or Update ("in the update
// case the file's blocks have already been allocated").
package iobench

import (
	"fmt"
	"io"

	"ufsclust"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// Kind is one IObench I/O type.
type Kind string

// The five I/O types of Figure 10, plus the mixed cell this
// reproduction adds for the read-ahead policy work.
const (
	FSR Kind = "FSR" // sequential read
	FSU Kind = "FSU" // sequential update
	FSW Kind = "FSW" // sequential write (fresh allocation)
	FRR Kind = "FRR" // random read
	FRU Kind = "FRU" // random update

	// FMX interleaves sequential and random read phases over one file:
	// the file is streamed in MixedPhases contiguous segments, and after
	// each segment the reader issues RandomOps/MixedPhases random
	// two-block bursts anywhere in the file. It is the workload the
	// paper's pure-sequential/pure-random matrix cannot express — the
	// one where a fixed always-on prefetch pollutes the random phase and
	// a fixed-off run starves the sequential phase, so an adaptive
	// policy must beat both.
	FMX Kind = "FMX" // mixed sequential/random read

	// FSTR is the strided vectored-read cell: Readv calls of VecBatch
	// Record-sized pieces whose starts are Stride bytes apart. Density
	// (Record/Stride) is the cell's real parameter — dense strides favour
	// data sieving (one envelope read, some waste), sparse strides favour
	// true list I/O (per-run transfers, no waste) — so sweeping Stride
	// with each vec strategy reproduces the sieve/list crossover of
	// Ching et al.'s noncontiguous-I/O study.
	FSTR Kind = "FSTR" // strided vectored read

	// FSM is Figure 12's workload: the whole file read sequentially
	// through the mmap interface (File.ReadMmap), which faults the pages
	// in without copying them out. "The IObench CPU times are dominated
	// by the copy time"; without the copy the file system's own CPU
	// shows.
	FSM Kind = "FSM" // sequential mmap read
)

// Kinds returns the paper's column order.
func Kinds() []Kind { return []Kind{FSR, FSU, FSW, FRR, FRU} }

// AllKinds returns every supported I/O type: the paper's five, the
// mixed read cell, the strided vectored-read cell and Figure 12's mmap
// read.
func AllKinds() []Kind { return []Kind{FSR, FSU, FSW, FRR, FRU, FMX, FSTR, FSM} }

// MixedPhases is the number of sequential/random phase pairs in an FMX
// run.
const MixedPhases = 4

// MixedBurstBlocks is the length, in blocks, of one random-phase burst:
// a short sequential run at a random offset, the record-crossing access
// shape that baits an eager prefetcher into issuing a full cluster.
const MixedBurstBlocks = 2

// Params sizes a benchmark run; the machine it runs on is the
// ufsclust.Scenario passed beside it. The defaults are the paper's
// hardware constraints: a 16 MB file (twice physical memory) moved 8 KB
// at a time.
type Params struct {
	FileMB    int // file size; default 16
	IOSize    int // bytes per read/write call; default 8192
	RandomOps int // operations in random phases; default file/IOSize

	// TraceW, when non-nil, receives the machine's scheduler trace
	// (sim.Sim.TraceW). Only meaningful for a single Run: feeding one
	// writer to concurrent runs would interleave their traces.
	TraceW io.Writer

	// EventW, when non-nil, receives the measured phase's telemetry
	// events as JSON lines (setup I/O is excluded). Same-seed runs
	// produce byte-identical streams. Single Run only, like TraceW.
	EventW io.Writer

	// Record and Stride shape the FSTR cell: each vector element reads
	// Record bytes, element starts are Stride bytes apart. Defaults:
	// Record = IOSize, Stride = 4*Record. Ignored by other kinds.
	Record int
	Stride int

	// VecBatch is the number of elements per Readv call in FSTR;
	// default 32.
	VecBatch int

	// VecSingle, when set, routes every scalar Read/Write of the
	// measured phase through a single-element Readv/Writev instead.
	// Single-element vectors must degenerate to the scalar paths
	// byte-for-byte, so a VecSingle run's trace and event stream must
	// equal the plain run's — the golden-replay gate for the vectored
	// entry points.
	VecSingle bool
}

func (p Params) withDefaults() Params {
	if p.FileMB == 0 {
		p.FileMB = 16
	}
	if p.IOSize == 0 {
		p.IOSize = 8192
	}
	if p.RandomOps == 0 {
		p.RandomOps = p.FileMB << 20 / p.IOSize
	}
	if p.Record == 0 {
		p.Record = p.IOSize
	}
	if p.Stride == 0 {
		p.Stride = 4 * p.Record
	}
	if p.VecBatch == 0 {
		p.VecBatch = 32
	}
	return p
}

// Result is one cell of Figure 10.
type Result struct {
	Run     string
	Kind    Kind
	Bytes   int64
	Elapsed sim.Time
	CPUTime sim.Time
}

// RateKBs returns the transfer rate in KB/second (the paper's unit).
func (r Result) RateKBs() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Bytes) / 1024 / r.Elapsed.Seconds()
}

// Run executes one I/O type on a fresh machine of the given scenario
// and returns the measured cell. The machine's seed is sc.Seed+1, which
// also seeds the workload's random offsets.
func Run(sc ufsclust.Scenario, kind Kind, prm Params) (Result, error) {
	res, _, err := RunMeasured(sc, kind, prm)
	return res, err
}

// RunMeasured is Run plus the full telemetry of the measured phase: a
// Snapshot delta spanning exactly the timed I/O loop, with setup
// (preallocation, cache purge) excluded. Result stays a comparable
// value for the determinism gates; callers who want disk seek
// histograms or driver queue depths read them from the snapshot. Extra
// options apply after the scenario's (see Cell.Options).
func RunMeasured(sc ufsclust.Scenario, kind Kind, prm Params, extra ...ufsclust.Option) (Result, telemetry.Snapshot, error) {
	if prm.FileMB < 0 || prm.IOSize < 0 || prm.RandomOps < 0 || prm.Record < 0 || prm.Stride < 0 || prm.VecBatch < 0 {
		return Result{}, telemetry.Snapshot{}, fmt.Errorf("iobench: negative size (file %d MB, I/O %d, ops %d, record %d, stride %d, batch %d)",
			prm.FileMB, prm.IOSize, prm.RandomOps, prm.Record, prm.Stride, prm.VecBatch)
	}
	prm = prm.withDefaults()
	if kind == FSTR && prm.Stride < prm.Record {
		// Overlapping records would be counted once per element: a rate
		// over bytes the disk never delivered.
		return Result{}, telemetry.Snapshot{}, fmt.Errorf("iobench: stride %d is below the record size %d", prm.Stride, prm.Record)
	}
	if int64(prm.IOSize) > int64(prm.FileMB)<<20 {
		// A random offset needs at least one I/O-sized slot in the file,
		// and a sequential pass would report the file's size after
		// moving one I/O's worth.
		return Result{}, telemetry.Snapshot{}, fmt.Errorf("iobench: I/O size %d exceeds the %d MB file", prm.IOSize, prm.FileMB)
	}
	sc.Seed++
	m, err := sc.New(extra...)
	if err != nil {
		return Result{}, telemetry.Snapshot{}, err
	}
	defer m.Close()
	m.Sim.TraceW = prm.TraceW
	size := int64(prm.FileMB) << 20
	res := Result{Run: sc.Run.Name, Kind: kind}
	var snap telemetry.Snapshot

	var runErr error
	err = m.Run(func(p *sim.Proc) {
		rng := m.Sim.Rand
		chunk := make([]byte, prm.IOSize)
		for i := range chunk {
			chunk[i] = byte(i)
		}

		// Setup: all kinds except FSW need a preallocated file.
		var f *ufsclust.File
		if f, runErr = m.Engine.Create(p, "/iobench"); runErr != nil {
			return
		}
		if kind != FSW {
			for off := int64(0); off < size; off += int64(prm.IOSize) {
				if _, runErr = f.Write(p, off, chunk); runErr != nil {
					return
				}
			}
			if runErr = f.Purge(p); runErr != nil {
				return
			}
		}
		if prm.EventW != nil {
			m.Tel.Bus.Subscribe(telemetry.NewJSONL(prm.EventW).Write)
		}

		// The measured phase's scalar ops, optionally rerouted through
		// single-element vectors (the degeneration gate — see VecSingle).
		read := func(off int64, b []byte) (int, error) { return f.Read(p, off, b) }
		write := func(off int64, b []byte) (int, error) { return f.Write(p, off, b) }
		if prm.VecSingle {
			read = func(off int64, b []byte) (int, error) {
				return f.Readv(p, []ufsclust.Ext{{Off: off, Len: int64(len(b))}}, b)
			}
			write = func(off int64, b []byte) (int, error) {
				return f.Writev(p, []ufsclust.Ext{{Off: off, Len: int64(len(b))}}, b)
			}
		}

		pre := m.Snapshot()
		t0 := p.Now()

		switch kind {
		case FSR:
			for off := int64(0); off < size; off += int64(prm.IOSize) {
				if _, runErr = read(off, chunk); runErr != nil {
					return
				}
			}
			res.Bytes = size
		case FSM:
			if runErr = f.ReadMmap(p, 0, size); runErr != nil {
				return
			}
			res.Bytes = size
		case FSU, FSW:
			for off := int64(0); off < size; off += int64(prm.IOSize) {
				if _, runErr = write(off, chunk); runErr != nil {
					return
				}
			}
			if runErr = f.Fsync(p); runErr != nil {
				return
			}
			res.Bytes = size
		case FRR:
			nblocks := size / int64(prm.IOSize)
			for i := 0; i < prm.RandomOps; i++ {
				off := rng.Int63n(nblocks) * int64(prm.IOSize)
				if _, runErr = read(off, chunk); runErr != nil {
					return
				}
			}
			res.Bytes = int64(prm.RandomOps) * int64(prm.IOSize)
		case FRU:
			nblocks := size / int64(prm.IOSize)
			for i := 0; i < prm.RandomOps; i++ {
				off := rng.Int63n(nblocks) * int64(prm.IOSize)
				if _, runErr = write(off, chunk); runErr != nil {
					return
				}
			}
			if runErr = f.Fsync(p); runErr != nil {
				return
			}
			res.Bytes = int64(prm.RandomOps) * int64(prm.IOSize)
		case FMX:
			// Alternate MixedPhases times between streaming one
			// contiguous segment of the file and a burst-random phase.
			// Each burst is MixedBurstBlocks consecutive IOSize reads at
			// a random block-aligned offset: long enough to look briefly
			// sequential, short enough that prefetching past it is pure
			// waste.
			nblocks := size / int64(prm.IOSize)
			seg := size / MixedPhases
			burstsPerPhase := prm.RandomOps / MixedPhases
			var moved int64
			for ph := 0; ph < MixedPhases; ph++ {
				lo := int64(ph) * seg
				hi := lo + seg
				if ph == MixedPhases-1 {
					hi = size
				}
				for off := lo; off < hi; off += int64(prm.IOSize) {
					if _, runErr = read(off, chunk); runErr != nil {
						return
					}
					moved += int64(prm.IOSize)
				}
				for i := 0; i < burstsPerPhase; i++ {
					base := rng.Int63n(nblocks) * int64(prm.IOSize)
					for b := 0; b < MixedBurstBlocks; b++ {
						off := base + int64(b)*int64(prm.IOSize)
						if off >= size {
							break
						}
						if _, runErr = read(off, chunk); runErr != nil {
							return
						}
						moved += int64(prm.IOSize)
					}
				}
			}
			res.Bytes = moved
		case FSTR:
			// Strided vectored read: VecBatch Record-sized pieces per
			// Readv, starts Stride bytes apart, walking the whole file.
			record := int64(prm.Record)
			stride := int64(prm.Stride)
			v := make([]ufsclust.Ext, 0, prm.VecBatch)
			buf := make([]byte, record*int64(prm.VecBatch))
			var moved int64
			flush := func() bool {
				if len(v) == 0 {
					return true
				}
				n, err := f.Readv(p, v, buf[:record*int64(len(v))])
				if err != nil {
					runErr = err
					return false
				}
				moved += int64(n)
				v = v[:0]
				return true
			}
			for off := int64(0); off+record <= size; off += stride {
				v = append(v, ufsclust.Ext{Off: off, Len: record})
				if len(v) == prm.VecBatch && !flush() {
					return
				}
			}
			if !flush() {
				return
			}
			res.Bytes = moved
		default:
			runErr = fmt.Errorf("iobench: unknown kind %q", kind)
			return
		}
		res.Elapsed = p.Now() - t0
		snap = m.Snapshot().Delta(pre)
		res.CPUTime = sim.Time(snap.Get("cpu.system_ns"))
	})
	if err != nil {
		return Result{}, telemetry.Snapshot{}, err
	}
	if runErr != nil {
		return Result{}, telemetry.Snapshot{}, runErr
	}
	return res, snap, nil
}
