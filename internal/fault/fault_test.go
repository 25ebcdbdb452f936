package fault

import (
	"strings"
	"testing"

	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string // "" = valid; else substring of the error
	}{
		{"empty", Plan{}, ""},
		{"transient", Plan{Rules: []Rule{FailNth(3, Writes, 2)}}, ""},
		{"hard", Plan{Rules: []Rule{FailNthHard(1, Any)}}, ""},
		{"cut-time", Plan{Rules: []Rule{CutAtTime(5 * sim.Millisecond)}}, ""},
		{"cut-io", Plan{Rules: []Rule{CutAtIO(2)}}, ""},
		{"media-with-at",
			Plan{Rules: []Rule{{Match: Match{}, Kind: MediaHard, At: 1}}},
			"power-cut only"},
		{"media-negative-fails",
			Plan{Rules: []Rule{{Match: Match{}, Kind: MediaTransient, Fails: -1}}},
			"negative Fails"},
		{"cut-negative-time", Plan{Rules: []Rule{{Kind: PowerCut, At: -1}}}, "negative cut time"},
		{"cut-with-fails", Plan{Rules: []Rule{{Kind: PowerCut, At: 1, Fails: 2}}}, "media only"},
		{"unknown-kind", Plan{Rules: []Rule{{Match: Match{}}}}, "unknown kind"},
		{"negative-nth",
			Plan{Rules: []Rule{{Match: Match{Nth: -2}, Kind: MediaHard}}},
			"negative Nth"},
		{"inverted-window",
			Plan{Rules: []Rule{{Match: Match{SectorLo: 9, SectorHi: 4}, Kind: MediaHard}}},
			"window inverted"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// rig is an injector wired to a bare sim and telemetry, with a recorder
// capturing everything emitted on the bus; ioStart plays the drive.
type rig struct {
	s      *sim.Sim
	tel    *telemetry.Telemetry
	inj    *Injector
	events []telemetry.Event
}

func newRig(t *testing.T, plan Plan) *rig {
	t.Helper()
	r := &rig{s: sim.New(1), tel: telemetry.New()}
	t.Cleanup(r.s.Close)
	inj, err := NewInjector(r.s, plan)
	if err != nil {
		t.Fatal(err)
	}
	r.inj = inj
	r.tel.Bus.Subscribe(func(ev telemetry.Event) { r.events = append(r.events, ev) })
	inj.AttachTelemetry(r.tel)
	return r
}

// ioStart begins a transfer the way the drive does: io_start goes out
// on the bus, then the injector decides whether the transfer fails.
func (r *rig) ioStart(sector int64, write bool) bool {
	return r.ioStartAt(r.s.Now(), sector, write)
}

func (r *rig) ioStartAt(t sim.Time, sector int64, write bool) bool {
	ev := telemetry.Event{T: t, Kind: telemetry.EvIOStart, Sector: sector, Write: write}
	r.tel.Bus.Emit(ev)
	return r.inj.Start(ev)
}

func (r *rig) kinds() []telemetry.EventKind {
	var out []telemetry.EventKind
	for _, ev := range r.events {
		out = append(out, ev.Kind)
	}
	return out
}

func TestMediaTransientLatchesAndDrains(t *testing.T) {
	// 2nd write fails twice (anchor + one retry), then recovers.
	r := newRig(t, Plan{Rules: []Rule{FailNth(2, Writes, 2)}})

	if r.ioStart(100, false) { // read: direction filter skips it
		t.Fatal("read transfer armed a Writes-only rule")
	}
	if r.ioStart(100, true) { // 1st write: not the anchor
		t.Fatal("1st write armed an Nth=2 rule")
	}
	if !r.ioStart(200, true) { // 2nd write: anchor fires
		t.Fatal("anchor transfer did not fail")
	}
	if r.ioStart(300, true) { // unrelated transfer while latched
		t.Fatal("latched rule failed an unrelated sector")
	}
	if !r.ioStart(200, true) { // retry of the latched transfer: 2nd failure
		t.Fatal("retry of latched transfer did not fail")
	}
	if r.ioStart(200, true) { // budget spent: the drive has "recovered"
		t.Fatal("transfer failed after the Fails budget was spent")
	}
	if got := r.inj.Stats.MediaInjected; got != 2 {
		t.Fatalf("MediaInjected = %d, want 2", got)
	}
	if r.inj.Crashed() {
		t.Fatal("media faults must not crash the machine")
	}
}

func TestMediaHardNeverHeals(t *testing.T) {
	r := newRig(t, Plan{Rules: []Rule{FailNthHard(1, Any)}})
	for i := 0; i < 5; i++ {
		if !r.ioStart(42, true) {
			t.Fatalf("attempt %d: hard fault healed", i+1)
		}
	}
	if got := r.inj.Stats.MediaInjected; got != 5 {
		t.Fatalf("MediaInjected = %d, want 5", got)
	}
}

func TestSectorWindowFilter(t *testing.T) {
	r := newRig(t, Plan{Rules: []Rule{{
		Match: Match{SectorLo: 1000, SectorHi: 1999},
		Kind:  MediaHard,
	}}})
	if r.ioStart(999, true) {
		t.Fatal("sector below the window matched")
	}
	if r.ioStart(2000, true) {
		t.Fatal("sector above the window matched")
	}
	if !r.ioStart(1500, true) {
		t.Fatal("sector inside the window did not match")
	}
}

func TestTakeMediaWithoutPending(t *testing.T) {
	r := newRig(t, Plan{})
	if r.ioStart(1, true) {
		t.Fatal("empty plan injected a fault")
	}
	if r.inj.Stats.MediaInjected != 0 {
		t.Fatalf("MediaInjected = %d, want 0", r.inj.Stats.MediaInjected)
	}
}

func TestCutAtEvent(t *testing.T) {
	r := newRig(t, Plan{Rules: []Rule{CutAtIO(2)}})
	var hookCut sim.Time
	r.inj.OnCrash(func(cut sim.Time) { hookCut = cut })

	r.ioStart(1, true)
	if r.inj.Crashed() {
		t.Fatal("crashed on the 1st event of an Nth=2 rule")
	}
	r.ioStart(2, true)
	if !r.inj.Crashed() {
		t.Fatal("no crash on the anchor event")
	}
	if hookCut != r.inj.CrashTime() {
		t.Fatalf("hook saw cut %v, CrashTime %v", hookCut, r.inj.CrashTime())
	}
	if r.inj.Stats.Cuts != 1 {
		t.Fatalf("Cuts = %d, want 1", r.inj.Stats.Cuts)
	}
	// The cut joined the event stream, after its trigger.
	ks := r.kinds()
	if ks[len(ks)-1] != telemetry.EvCrashCut {
		t.Fatalf("last event = %v, want crash_cut (stream %v)", ks[len(ks)-1], ks)
	}
	// Post-crash the injector is inert: no more faults, no second cut.
	if r.ioStart(3, true) {
		t.Fatal("fault injected after the crash")
	}
	if r.inj.Stats.Cuts != 1 {
		t.Fatalf("Cuts = %d after extra events, want 1", r.inj.Stats.Cuts)
	}
}

// TestCutKeepsEarlierMediaFailure: a cut stops the rule walk, but a
// media rule that matched the same transfer earlier in the walk still
// fails it.
func TestCutKeepsEarlierMediaFailure(t *testing.T) {
	r := newRig(t, Plan{Rules: []Rule{FailNthHard(1, Any), CutAtIO(1), FailNthHard(1, Any)}})
	if !r.ioStart(7, true) {
		t.Fatal("media rule before the cut did not fail the transfer")
	}
	if !r.inj.Crashed() || r.inj.Stats.MediaInjected != 1 {
		t.Fatalf("Crashed=%v MediaInjected=%d, want a cut and one failure", r.inj.Crashed(), r.inj.Stats.MediaInjected)
	}
}

func TestCutAtTimeStopsTheClock(t *testing.T) {
	const cut = 3 * sim.Millisecond
	r := newRig(t, Plan{Rules: []Rule{CutAtTime(cut)}})
	reached := false
	r.s.Spawn("w", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond) // before the cut
		reached = true
		p.Sleep(2 * sim.Millisecond) // straddles the cut; never returns
		t.Error("process survived the power cut")
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !reached {
		t.Fatal("work before the cut did not run")
	}
	if !r.inj.Crashed() || r.inj.CrashTime() != cut {
		t.Fatalf("Crashed=%v CrashTime=%v, want cut at %v", r.inj.Crashed(), r.inj.CrashTime(), cut)
	}
	if r.s.Now() != cut {
		t.Fatalf("clock stopped at %v, want %v", r.s.Now(), cut)
	}
}

func TestAfterFilter(t *testing.T) {
	r := newRig(t, Plan{Rules: []Rule{{
		Match: Match{After: 5 * sim.Millisecond},
		Kind:  MediaHard,
	}}})
	if r.ioStartAt(1*sim.Millisecond, 0, true) {
		t.Fatal("event before After matched")
	}
	if !r.ioStartAt(6*sim.Millisecond, 0, true) {
		t.Fatal("event after After did not match")
	}
}
