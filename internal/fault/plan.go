// Package fault is the deterministic fault-injection layer: seed-free,
// plan-driven media errors and power-cut crashes. A Plan is a list of
// Rules; each rule anchors on a transfer match ("the 3rd write on this
// sector range", "the first read of sd1 after time T") or, for power
// cuts, an absolute simulated time. Every drive calls the Injector as
// each transfer begins service (Injector.Start); the injector counts
// the transfers each anchor matches and fires the fault exactly when
// its anchor does — same plan, same seed, same faults, every run, with
// or without telemetry attached.
//
// A media error fails the transfer its anchor matched (internal/disk
// reports ErrMedia); a power cut stops the simulation clock dead and
// freezes the disk image with only the sectors physically written by
// then (a transfer in flight is torn at sector granularity — see
// disk.freezeTorn).
package fault

import (
	"fmt"

	"ufsclust/internal/sim"
)

// RW filters a transfer match by direction.
type RW uint8

// Direction filters.
const (
	Any    RW = iota // match reads and writes
	Reads            // match only reads
	Writes           // match only writes
)

// Kind selects what the armed fault does.
type Kind uint8

// Fault kinds.
const (
	// MediaTransient fails the matched transfer (and its retries) for
	// Rule.Fails attempts, then lets it succeed — the drive "recovers".
	MediaTransient Kind = iota + 1
	// MediaHard fails the matched transfer and every retry of it,
	// forever: the driver's give-up path is the only way out.
	MediaHard
	// PowerCut stops the machine at the anchor (a transfer match, or
	// the absolute time Rule.At) and freezes the disk image as of that
	// instant.
	PowerCut
)

func (k Kind) String() string {
	switch k {
	case MediaTransient:
		return "media-transient"
	case MediaHard:
		return "media-hard"
	case PowerCut:
		return "power-cut"
	}
	return "unknown"
}

// Match is a rule's anchor: a predicate over the transfers the drives
// begin servicing plus an occurrence count. The rule fires on the Nth
// transfer (1-based) that passes every filter.
type Match struct {
	Nth int64 // 1-based occurrence; 0 means 1
	RW  RW    // direction filter

	// SectorLo/SectorHi restrict the match to transfers whose first
	// sector lies in [SectorLo, SectorHi]. SectorHi == 0 disables the
	// filter. Use disk geometry / ufs layout helpers to aim at a
	// cylinder group. On a volume machine a member's sectors are
	// member-local; combine with Dev to aim at a spindle region.
	SectorLo, SectorHi int64

	// Dev restricts the match to transfers on this member device
	// ("sd1" — see internal/vol). Empty matches any device, including
	// the unlabeled bare drive.
	Dev string

	// After ignores transfers that start before this simulated time.
	After sim.Time
}

// Rule is one planned fault.
type Rule struct {
	Match Match
	Kind  Kind

	// Fails is, for MediaTransient, how many attempts (the anchored
	// transfer plus its retries) fail before the drive recovers.
	// 0 means 1.
	Fails int

	// At, for PowerCut only, cuts power at an absolute simulated time
	// instead of a transfer match. When At > 0 the Match is ignored.
	At sim.Time
}

// Plan is a complete fault schedule. The zero value injects nothing.
type Plan struct {
	Rules []Rule
}

// Validate rejects rules the injector cannot honor deterministically.
func (pl Plan) Validate() error {
	for i, r := range pl.Rules {
		switch r.Kind {
		case MediaTransient, MediaHard:
			if r.At != 0 {
				return fmt.Errorf("fault: rule %d: At is power-cut only", i)
			}
			if r.Fails < 0 {
				return fmt.Errorf("fault: rule %d: negative Fails", i)
			}
		case PowerCut:
			if r.At < 0 {
				return fmt.Errorf("fault: rule %d: negative cut time", i)
			}
			if r.Fails != 0 {
				return fmt.Errorf("fault: rule %d: Fails is media only", i)
			}
		default:
			return fmt.Errorf("fault: rule %d: unknown kind %d", i, r.Kind)
		}
		if r.Match.Nth < 0 {
			return fmt.Errorf("fault: rule %d: negative Nth", i)
		}
		if r.Match.SectorHi != 0 && r.Match.SectorHi < r.Match.SectorLo {
			return fmt.Errorf("fault: rule %d: sector window inverted", i)
		}
	}
	return nil
}

// FailNth fails the nth transfer in direction rw for fails attempts
// (transient: the transfer succeeds once the budget is spent).
func FailNth(nth int64, rw RW, fails int) Rule {
	return Rule{
		Match: Match{Nth: nth, RW: rw},
		Kind:  MediaTransient,
		Fails: fails,
	}
}

// FailNthHard fails the nth transfer in direction rw and every retry
// of it, permanently.
func FailNthHard(nth int64, rw RW) Rule {
	return Rule{
		Match: Match{Nth: nth, RW: rw},
		Kind:  MediaHard,
	}
}

// CutAtTime cuts power at absolute simulated time t.
func CutAtTime(t sim.Time) Rule {
	return Rule{Kind: PowerCut, At: t}
}

// CutAtIO cuts power as the nth transfer begins service.
func CutAtIO(nth int64) Rule {
	return Rule{Match: Match{Nth: nth}, Kind: PowerCut}
}
