// Package prefetch implements the engine's read-ahead policies: the
// decision half of getpage's prefetch path. A Policy watches each
// file's access pattern at the read-ahead trigger points and answers
// one question — how many clusters to issue ahead of the reader — while
// the engine keeps the mechanism (bmap, startRead, nextrio bookkeeping)
// and each file's State beside its other clustering cursors.
//
// Three policies exist:
//
//   - Fixed (the default, the paper's nextrio behaviour): one cluster
//     ahead, always. Byte-identical to the pre-policy engine.
//   - Adaptive: a per-file sequentiality-confidence detector feeding a
//     ramping window — arm on the first sequential trigger, issue one
//     cluster on the second, double on each further confirmed trigger
//     up to a ceiling, collapse to zero on a random seek, and clamp by
//     free memory and the per-file write-limit headroom so prefetch
//     never starves demand I/O.
//   - Off: no read-ahead at all (WithReadAhead(prefetch.Off())).
//
// Policies are stateless values, so one may serve any number of files
// and machines; a file's detector is the State its vnode hands to
// Trigger. Decisions depend on simulated inputs only: same access
// stream, same decisions, same telemetry — the ra_window event stream
// replays byte-identically across same-seed runs.
package prefetch

// State is one file's sequentiality detector: the count of consecutive
// confirmed sequential triggers since the last random seek. The zero
// value is a cold file; the engine zeroes it on a random seek (the
// collapse) and on purge.
type State struct {
	hits int
}

// Limits carries the resource state a policy may clamp its window
// against. The engine fills it from live machine state at each trigger.
type Limits struct {
	// ClusterBlocks is the effective cluster size in blocks (maxcontig
	// capped by the driver's maxphys).
	ClusterBlocks int
	// BlockBytes is the file system block size.
	BlockBytes int
	// FreePages is the VM free-list length in pages.
	FreePages int
	// MemLow reports free memory near the pageout threshold (the same
	// predicate that gates free-behind).
	MemLow bool
	// WriteHeadroom is the file's write-limit semaphore headroom in
	// bytes, or -1 when the engine runs no write limit. Prefetch competes
	// with demand writes for the disk queue; a policy that respects the
	// headroom cannot queue more speculative bytes than the limit lets
	// one file queue deliberately.
	WriteHeadroom int64
}

// Decision is a policy's answer at a read-ahead trigger.
type Decision struct {
	// Clusters is how many clusters to issue, starting at the window
	// cursor (nextrio). Zero means arm the trigger but issue nothing.
	Clusters int
	// Confidence is the detector's sequentiality confidence (consecutive
	// confirmed sequential triggers); fixed policies report 0.
	Confidence int
	// ClampedMem and ClampedSem report that the window was reduced by
	// the free-memory or write-limit clamp (telemetry).
	ClampedMem bool
	ClampedSem bool
}

// Policy decides the prefetch window at each read-ahead trigger. The
// clustered engine consults the one in its Config.Prefetch;
// implementations keep no state of their own, must be deterministic,
// and must not touch simulated time or scheduling.
type Policy interface {
	// Name returns the policy's wire name ("fixed", "adaptive").
	Name() string
	// Trigger is consulted when the access stream reaches the read-ahead
	// trigger point: the start of the last prefetched cluster, or the
	// start of the file. st is the file's detector, seq reports whether
	// the access matched the block-level predictor (lbn == nextr).
	Trigger(st *State, seq bool, lim Limits) Decision
}

// Off returns the nil policy: WithReadAhead(prefetch.Off()) disables
// read-ahead entirely (a nil Config.Prefetch is the engine's
// read-ahead-off switch, for both engines).
func Off() Policy { return nil }

// fixed is the paper's policy: one cluster ahead on every trigger,
// no detector, no clamps — exactly the pre-policy nextrio code.
type fixed struct{}

// NewFixed returns the default one-cluster policy.
func NewFixed() Policy { return fixed{} }

func (fixed) Name() string { return "fixed" }

// Trigger always asks for one cluster; the legacy behaviour never
// clamps, so a machine with no telemetry attached behaves bit-for-bit
// like the pre-policy engine.
func (fixed) Trigger(st *State, seq bool, lim Limits) Decision {
	return Decision{Clusters: 1}
}

// The adaptive policy's tuning.
const (
	// startClusters is the window issued on the first confirmed
	// sequential trigger (the second sequential trigger since the last
	// collapse).
	startClusters = 1
	// maxClusters is the ramp ceiling: 120 blocks ahead at the paper's
	// 15-block clusters.
	maxClusters = 8
	// memDivisor caps the window at FreePages/memDivisor pages so a
	// deep window cannot flush the cache; when memory is low the window
	// additionally collapses to at most one cluster.
	memDivisor = 4
	// confidenceCap saturates the confidence counter (and therefore the
	// ramp exponent).
	confidenceCap = 16
)

// AdaptiveConfig is NewAdaptive's argument. It has no settings: the
// policy's tuning is the constants above.
type AdaptiveConfig struct{}

// adaptive is the confidence-driven policy over each file's State.
type adaptive struct{}

// NewAdaptive returns the adaptive policy.
func NewAdaptive(AdaptiveConfig) Policy { return adaptive{} }

func (adaptive) Name() string { return "adaptive" }

// Trigger ramps the window: the first sequential trigger after a
// collapse arms the detector without issuing (a single accidental
// next-block touch — the head of a two-block random burst — must not
// pay a full cluster), the second issues startClusters, and each
// further *granted* window doubles the next one up to maxClusters —
// confidence steps once per window issued, not once per consulted
// block, so a freshly confirmed stream cannot leap straight to the
// ceiling and overshoot. A trigger whose access did not match the
// predictor neither ramps nor issues.
func (adaptive) Trigger(d *State, seq bool, lim Limits) Decision {
	if !seq {
		return Decision{Clusters: 0, Confidence: d.hits}
	}
	if d.hits == 0 {
		d.hits = 1
		return Decision{Clusters: 0, Confidence: 1}
	}
	want := startClusters
	for i := 1; i < d.hits && want < maxClusters; i++ {
		want *= 2
	}
	if want > maxClusters {
		want = maxClusters
	}
	dec := clamp(Decision{Clusters: want, Confidence: d.hits}, lim)
	if dec.Clusters > 0 && d.hits < confidenceCap {
		d.hits++
	}
	return dec
}

// clamp applies the resource limits to a desired window.
func clamp(dec Decision, lim Limits) Decision {
	cb := lim.ClusterBlocks
	if cb < 1 {
		cb = 1
	}
	// Free-memory clamp: the window may use at most a memDivisor'th of
	// free memory, and at most one cluster when memory is already low.
	maxBlocks := lim.FreePages / memDivisor
	if lim.MemLow && maxBlocks > cb {
		maxBlocks = cb
	}
	if byMem := maxBlocks / cb; dec.Clusters > byMem {
		dec.Clusters = byMem
		dec.ClampedMem = true
	}
	// Write-limit clamp: never queue more speculative bytes than the
	// per-file write limit would let a writer queue deliberately.
	if lim.WriteHeadroom >= 0 && lim.BlockBytes > 0 {
		bySem := int(lim.WriteHeadroom / int64(cb*lim.BlockBytes))
		if dec.Clusters > bySem {
			dec.Clusters = bySem
			dec.ClampedSem = true
		}
	}
	// A confirmed sequential stream never drops below one cluster: that
	// is the fixed baseline, and the fixed policy prefetches one cluster
	// into LRU-stolen pages regardless of free-list length. Clamping a
	// confirmed stream to zero would make adaptive strictly worse than
	// fixed whenever memory is tight — exactly when the steady-state
	// free list is short.
	if dec.Clusters < 1 {
		dec.Clusters = 1
	}
	return dec
}
