package fault

import (
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// Stats counts injector activity. Covered by the root registry as
// fault.* counters; measure intervals with Snapshot/Delta.
type Stats struct {
	MediaInjected int64 // failed transfer attempts delivered to the drive
	Cuts          int64 // power cuts delivered (0 or 1 per machine)
}

// ruleState is one rule's live matching state. A media rule, once its
// anchor fires, latches onto the identity of the transfer it failed
// (sector, direction, device) so that the driver's retries of that same
// transfer keep failing until the rule's budget is spent — without the
// latch, the retry's own io_start would not be "the nth" anymore and a
// hard error would heal itself.
type ruleState struct {
	r       Rule
	seen    int64 // matching transfers seen so far
	latched bool  // media rule armed on a transfer identity
	sector  int64
	write   bool
	dev     string // member device of the latched transfer
	fails   int    // failed attempts delivered so far
	done    bool   // rule exhausted
}

func (rs *ruleState) match(ev telemetry.Event) bool {
	m := rs.r.Match
	if m.After > 0 && ev.T < m.After {
		return false
	}
	if m.Dev != "" && ev.Dev != m.Dev {
		return false
	}
	switch m.RW {
	case Reads:
		if ev.Write {
			return false
		}
	case Writes:
		if !ev.Write {
			return false
		}
	}
	if m.SectorHi != 0 && (ev.Sector < m.SectorLo || ev.Sector > m.SectorHi) {
		return false
	}
	rs.seen++
	return rs.seen == max(m.Nth, 1)
}

// Injector executes a Plan against one machine. The drive calls Start
// as each transfer begins service; the injector counts the transfers
// every rule's anchor matches and answers whether this one fails. It
// also owns the crash state: once a power cut fires, the sim is stopped
// and Crashed reports true.
type Injector struct {
	sim     *sim.Sim
	rules   []*ruleState
	crashed bool
	cutAt   sim.Time
	onCrash []func(cut sim.Time)
	bus     *telemetry.Bus

	Stats Stats
}

// NewInjector validates the plan and builds its injector. Time-based
// power cuts are scheduled on s immediately; the other rules count the
// transfers the drive reports through Start.
func NewInjector(s *sim.Sim, plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{sim: s}
	for _, r := range plan.Rules {
		rs := &ruleState{r: r}
		in.rules = append(in.rules, rs)
		if r.Kind == PowerCut && r.At > 0 {
			rs.done = true // consumed by the timer below
			at := r.At
			s.At(at, func() { in.crash(at) })
		}
	}
	return in, nil
}

// AttachTelemetry registers the fault.* counters and keeps the bus the
// crash_cut event goes out on. The injector is not a subscriber: the
// faults do not depend on telemetry being attached.
func (in *Injector) AttachTelemetry(tel *telemetry.Telemetry) {
	in.bus = tel.Bus
	tel.Reg.Counter("fault.media_injected", func() int64 { return in.Stats.MediaInjected })
	tel.Reg.Counter("fault.cuts", func() int64 { return in.Stats.Cuts })
}

// OnCrash registers a hook that runs when a power cut fires, before
// the sim is stopped — the disk uses it to freeze torn transfers.
func (in *Injector) OnCrash(fn func(cut sim.Time)) {
	in.onCrash = append(in.onCrash, fn)
}

// Start is called by the drive as it begins servicing a transfer, just
// after the transfer's io_start event is emitted. It advances every live
// rule's match state, fires a power cut whose anchor is this transfer,
// and reports whether the transfer must fail, consuming one failure from
// the matched media rule's budget.
func (in *Injector) Start(ev telemetry.Event) bool {
	if in.crashed {
		return false
	}
	var media *ruleState
walk:
	for _, rs := range in.rules {
		if rs.done {
			continue
		}
		switch rs.r.Kind {
		case MediaTransient, MediaHard:
			if rs.latched {
				// A retry of the latched transfer is starting: keep
				// failing it until the budget runs out. The member
				// label is part of the transfer's identity: a volume
				// reissuing the same member-local sector on another
				// spindle (mirror failover) must not re-trip the rule.
				if ev.Sector == rs.sector && ev.Write == rs.write && ev.Dev == rs.dev {
					media = rs
				}
				continue
			}
			if rs.match(ev) {
				rs.latched, rs.sector, rs.write, rs.dev = true, ev.Sector, ev.Write, ev.Dev
				media = rs
			}
		case PowerCut:
			if rs.match(ev) {
				rs.done = true
				in.crash(ev.T)
				break walk
			}
		}
	}
	if media == nil {
		return false
	}
	media.fails++
	in.Stats.MediaInjected++
	if media.r.Kind == MediaTransient && media.fails >= max(media.r.Fails, 1) {
		media.done = true
	}
	return true
}

// crash executes a power cut: freeze hooks run first (they see the cut
// time and the pre-stop disk state), then the clock stops and the cut
// joins the event stream.
func (in *Injector) crash(t sim.Time) {
	if in.crashed {
		return
	}
	in.crashed = true
	in.cutAt = t
	in.Stats.Cuts++
	for _, fn := range in.onCrash {
		fn(t)
	}
	in.sim.Stop()
	in.bus.Emit(telemetry.Event{T: t, Kind: telemetry.EvCrashCut})
}

// Crashed reports whether a power cut has fired.
func (in *Injector) Crashed() bool { return in.crashed }

// CrashTime returns the simulated time of the power cut (0 if none).
func (in *Injector) CrashTime() sim.Time { return in.cutAt }
