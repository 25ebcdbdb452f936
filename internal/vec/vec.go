// Package vec implements the planning half of vectored (noncontiguous)
// I/O: the offset–length algebra and strategy selection behind the root
// API's Readv/Writev. Ching et al. ("Noncontiguous I/O through PVFS")
// name the two classic implementations — data sieving (transfer the
// covering envelope once, scatter/gather in memory) and true list I/O
// (sort the pieces, merge adjacent and overlapping runs, issue one
// transfer per run) — and show that neither wins everywhere: sieving
// wins dense access patterns, where the envelope carries little dead
// weight, and list I/O wins sparse ones, where the envelope is mostly
// gap. A Strategy makes that call per request; the engine in
// internal/core keeps the mechanism (page cache, cluster reads, the
// delayed-write window).
//
// Determinism rules for the run-merge sort (see DESIGN.md "Vectored
// I/O"): elements sort by file offset with a stable sort, so equal
// offsets keep their vector order; runs merge exactly when they overlap
// or abut; a run's member list is in ascending vector-index order, so
// overlay order (later elements win overlapping writes) never depends
// on sort internals. Same vector, same plan, same telemetry — vectored
// event streams replay byte-identically across same-seed runs.
package vec

import (
	"fmt"
	"math"
	"sort"
)

// Ext is one element of an I/O vector: Len bytes at file offset Off.
type Ext struct {
	Off int64
	Len int64
}

// End returns the offset just past the element.
func (e Ext) End() int64 { return e.Off + e.Len }

// Run is one merged extent of the normalized vector: a maximal set of
// elements that pairwise chain-overlap or abut, covering [Off, Off+Len)
// with no interior gap. Members holds the vector indices of the
// elements the run absorbed, in ascending vector order.
type Run struct {
	Off     int64
	Len     int64
	Members []int
}

// End returns the offset just past the run.
func (r Run) End() int64 { return r.Off + r.Len }

// Norm is a normalized I/O vector: the merged runs plus the request
// shape numbers a Strategy decides from.
type Norm struct {
	// Runs are the merged extents in ascending offset order.
	Runs []Run
	// Payload is the sum of the element lengths: the bytes the caller
	// asked to move. Overlapping elements count each time — they cost
	// a memory copy each, even when the disk transfer is shared.
	Payload int64
	// Span is the covering envelope in bytes: from the lowest element
	// offset to the highest element end. A sieving transfer moves this
	// much.
	Span int64
	// Lo is the envelope's start offset (the lowest element offset).
	Lo int64
	// Coalesced counts elements that were absorbed into a run with at
	// least one other element — the merge win list I/O gets for free.
	Coalesced int
}

// Density returns Payload/Span, the fraction of the envelope the
// caller actually wants. 1 means fully contiguous; small values mean a
// sparse request whose envelope is mostly gap.
func (n Norm) Density() float64 {
	if n.Span == 0 {
		return 0
	}
	d := float64(n.Payload) / float64(n.Span)
	if d > 1 {
		d = 1 // overlapping elements can push payload past the span
	}
	return d
}

// Normalize validates v and computes its merged-run plan. Zero-length
// elements are legal and produce no run membership; a negative offset
// or length is an error, and so is an element whose end or a payload
// whose total does not fit an int64. The input slice is not modified.
func Normalize(v []Ext) (Norm, error) {
	var n Norm
	for i, e := range v {
		if e.Off < 0 || e.Len < 0 {
			return Norm{}, fmt.Errorf("vec: element %d has negative offset or length (%d,%d)", i, e.Off, e.Len)
		}
		if e.Len > math.MaxInt64-e.Off || e.Len > math.MaxInt64-n.Payload {
			return Norm{}, fmt.Errorf("vec: element %d (%d,%d) overflows the offset range", i, e.Off, e.Len)
		}
		n.Payload += e.Len
	}
	// Sort element indices by offset, stably: equal offsets keep vector
	// order, so the plan is a pure function of the vector.
	idx := make([]int, 0, len(v))
	for i, e := range v {
		if e.Len > 0 {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]].Off < v[idx[b]].Off })
	for _, i := range idx {
		e := v[i]
		if len(n.Runs) > 0 {
			last := &n.Runs[len(n.Runs)-1]
			if e.Off <= last.End() { // overlap or abut: merge
				if e.End() > last.End() {
					last.Len = e.End() - last.Off
				}
				last.Members = append(last.Members, i)
				continue
			}
		}
		n.Runs = append(n.Runs, Run{Off: e.Off, Len: e.Len, Members: []int{i}})
	}
	for i := range n.Runs {
		r := &n.Runs[i]
		if len(r.Members) > 1 {
			n.Coalesced += len(r.Members) - 1
		}
		// Members were appended in offset order; overlay order must be
		// vector order so later elements win overlapping writes.
		sort.Ints(r.Members)
	}
	if len(n.Runs) > 0 {
		n.Lo = n.Runs[0].Off
		n.Span = n.Runs[len(n.Runs)-1].End() - n.Lo
	}
	return n, nil
}

// Method is one of the three vectored-I/O implementations.
type Method uint8

const (
	// Naive services each element with its own ordinary read or write,
	// in vector order: the per-piece baseline both classic strategies
	// are measured against.
	Naive Method = iota
	// Sieve transfers the covering envelope once and scatters (reads)
	// or gathers with read-modify-write over the gaps (writes) in
	// memory. Cheap when the vector is dense, pure waste when sparse.
	Sieve
	// List sorts the elements, merges adjacent and overlapping runs,
	// and moves each run with the engine's clustering machinery: batched
	// cluster-sized reads, delayed-window writes. The envelope's gaps
	// are never transferred.
	List
)

// String returns the method's wire name.
func (m Method) String() string {
	switch m {
	case Naive:
		return "naive"
	case Sieve:
		return "sieve"
	case List:
		return "list"
	}
	return "unknown"
}

// Strategy picks the method for one vectored request. Implementations
// must be deterministic, stateless or per-machine, and must not touch
// simulated time — the pick feeds the byte-identical event streams.
type Strategy interface {
	// Name returns the strategy's wire name ("auto", "sieve", ...).
	Name() string
	// Pick chooses the method for a normalized request. write reports
	// the transfer direction.
	Pick(n Norm, write bool) Method
}

// fixed always answers the same method.
type fixed struct{ m Method }

func (f fixed) Name() string           { return f.m.String() }
func (f fixed) Pick(Norm, bool) Method { return f.m }

// UseNaive returns the per-piece baseline strategy: every element is an
// ordinary read or write, in vector order, with no reordering. It is
// the control arm of the FSTR benchmark, not a good idea.
func UseNaive() Strategy { return fixed{Naive} }

// UseSieve returns the always-sieve strategy.
func UseSieve() Strategy { return fixed{Sieve} }

// UseList returns the always-list-I/O strategy.
func UseList() Strategy { return fixed{List} }

// DefaultDenseCutoff is Auto's default density threshold, calibrated
// against the FSTR stride matrix in BENCH_iobench.json: on the
// simulated drive, sieving's clustered envelope read still beats list
// I/O's per-run transfers at density 1/4, and list wins from 1/8 down,
// so the cutoff sits between them. The byte-level density is only a
// proxy — the true determinant is how many file blocks the runs touch,
// which this fs-agnostic package cannot see — but it tracks the
// measured winner across the whole published sweep.
const DefaultDenseCutoff = 0.2

// auto picks Sieve for dense requests and List for sparse ones.
type auto struct{ cutoff float64 }

func (a auto) Name() string { return "auto" }

func (a auto) Pick(n Norm, write bool) Method {
	if len(n.Runs) <= 1 {
		// A single merged run has no gaps, so sieving's envelope IS the
		// payload: a read rides the scalar path's read-ahead with zero
		// waste, while a write would pay a pointless read-modify-write
		// of bytes it fully overwrites — so reads sieve, writes take
		// the run path directly.
		if write {
			return List
		}
		return Sieve
	}
	if n.Density() >= a.cutoff {
		return Sieve
	}
	return List
}

// Auto returns the density-threshold strategy: requests at or above
// cutoff go through data sieving, sparser ones through list I/O.
// A cutoff of 0 selects DefaultDenseCutoff.
func Auto(cutoff float64) Strategy {
	if cutoff == 0 {
		cutoff = DefaultDenseCutoff
	}
	return auto{cutoff: cutoff}
}
