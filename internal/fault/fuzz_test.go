package fault

import (
	"encoding/binary"
	"testing"

	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// ruleBytes and eventBytes size one record of FuzzPlan's input.
const (
	ruleBytes  = 14
	eventBytes = 4
)

var fuzzDevs = []string{"", "sd0", "sd1"}

// decodeRule reads one rule: kind (0 is unknown), direction, Nth,
// Fails, device, sector window, cut time and After; byte 1 is unused.
// Small signed fields keep the interesting boundaries (0, negative,
// inverted) within a mutation's reach.
func decodeRule(b []byte) Rule {
	return Rule{
		Kind: Kind(b[0] % 4),
		Match: Match{
			RW:       RW(b[2] % 3),
			Nth:      int64(int8(b[3])),
			Dev:      fuzzDevs[int(b[5])%len(fuzzDevs)],
			SectorLo: int64(int16(binary.LittleEndian.Uint16(b[6:]))),
			SectorHi: int64(int16(binary.LittleEndian.Uint16(b[8:]))),
			After:    sim.Time(b[12]) * sim.Microsecond,
		},
		Fails: int(int8(b[4])),
		At:    sim.Time(int16(binary.LittleEndian.Uint16(b[10:]))) * sim.Microsecond,
	}
}

// FuzzPlan validates an arbitrary plan and, when it is valid, drives its
// injector through a synthetic event stream the way the drive does
// (Start after every io_start), then runs the clock to fire the
// timed cuts. A plan is refused by both Validate and NewInjector or by
// neither; a valid one never panics, cuts power at most once, injects no
// media fault after the cut, and counts every fault it delivers.
func FuzzPlan(f *testing.F) {
	rule := func(r Rule) []byte {
		b := make([]byte, ruleBytes)
		b[0], b[2], b[3], b[4] = byte(r.Kind), byte(r.Match.RW), byte(r.Match.Nth), byte(r.Fails)
		binary.LittleEndian.PutUint16(b[6:], uint16(r.Match.SectorLo))
		binary.LittleEndian.PutUint16(b[8:], uint16(r.Match.SectorHi))
		binary.LittleEndian.PutUint16(b[10:], uint16(r.At/sim.Microsecond))
		return b
	}
	var stream []byte
	for i := 0; i < 8; i++ {
		stream = append(stream, byte(telemetry.EvIOStart), byte(i), byte(i&1), 10)
	}
	f.Add([]byte(nil), stream)
	f.Add(rule(FailNth(2, Writes, 2)), stream)
	f.Add(append(rule(FailNthHard(1, Any)), rule(CutAtIO(3))...), stream)
	f.Add(rule(CutAtTime(50*sim.Microsecond)), stream)
	f.Add(rule(Rule{Kind: MediaHard, Match: Match{SectorLo: 9, SectorHi: 4}}), stream)
	f.Add(rule(Rule{Kind: PowerCut, At: -1}), stream)

	f.Fuzz(func(t *testing.T, rules, events []byte) {
		var plan Plan
		for ; len(rules) >= ruleBytes; rules = rules[ruleBytes:] {
			plan.Rules = append(plan.Rules, decodeRule(rules))
		}
		s := sim.New(1)
		defer s.Close()
		inj, err := NewInjector(s, plan)
		if verr := plan.Validate(); (verr == nil) != (err == nil) {
			t.Fatalf("Validate says %v, NewInjector says %v", verr, err)
		}
		if err != nil {
			return
		}
		tel := telemetry.New()
		inj.AttachTelemetry(tel)
		hooks := 0
		inj.OnCrash(func(sim.Time) { hooks++ })

		var now sim.Time
		var failed int64
		for ; len(events) >= eventBytes; events = events[eventBytes:] {
			ev := telemetry.Event{
				T:      now,
				Kind:   telemetry.EventKind(events[0] % 24),
				Sector: int64(events[1]),
				Write:  events[2]&1 == 1,
				Dev:    fuzzDevs[int(events[2]>>1)%len(fuzzDevs)],
			}
			now += sim.Time(events[3]) * sim.Microsecond
			crashed := inj.Crashed()
			tel.Bus.Emit(ev)
			if ev.Kind != telemetry.EvIOStart {
				continue
			}
			if inj.Start(ev) {
				if crashed {
					t.Fatalf("media fault injected after the cut at %v", inj.CrashTime())
				}
				failed++
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got := inj.Stats.MediaInjected; got != failed {
			t.Fatalf("MediaInjected = %d, Start failed %d transfers", got, failed)
		}
		if c := inj.Stats.Cuts; c > 1 || (c == 1) != inj.Crashed() || int64(hooks) != c {
			t.Fatalf("cuts %d, crashed %v, crash hooks run %d", c, inj.Crashed(), hooks)
		}
	})
}
