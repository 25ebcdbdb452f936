package ufsclust

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"ufsclust/internal/driver"
	"ufsclust/internal/vol"
)

// parseScenario runs args through a fresh flag set carrying only the
// shared machine-shape flags.
func parseScenario(args ...string) (Scenario, error) {
	var sc Scenario
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sc.RegisterFlags(fs)
	return sc, fs.Parse(args)
}

// TestScenarioRejectsUnknownNames: a misspelt mode or level, or a shape
// the builder cannot assemble, never reaches a machine. The three mode
// names and the memory size are refused by Options; the volume level,
// and a memory size whose bytes overflow an int64, are resolved while
// the flags parse, so they are refused there; New refuses
// the same shapes arriving as options, where vm.New and driver.New used
// to panic.
func TestScenarioRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-ra", "bogus"}, false},
		{[]string{"-vec", "bogus"}, false},
		{[]string{"-journal", "bogus"}, false},
		{[]string{"-journal", "wal-clustered"}, false}, // one log layout: the name is gone
		{[]string{"-vol", "bogus"}, false},
		{[]string{"-members", "3", "-vol", "raid6"}, false},
		{[]string{"-mem", "-1"}, false},
		{[]string{"-mem", "17592186044424"}, false}, // (1<<44 + 8) MB wraps to 8 MB
		{nil, true},
		{[]string{"-mem", "0"}, true},
		{[]string{"-ra", "adaptive", "-vec", "sieve", "-journal", "wal", "-vol", "mirror"}, true},
		{[]string{"-ra", "off", "-vec", "list", "-journal", "wal"}, true},
		{[]string{"-ra", "fixed", "-vec", "naive", "-journal", "off"}, true},
	} {
		sc, err := parseScenario(tc.args...)
		if err == nil {
			_, err = sc.Options()
		}
		if (err == nil) != tc.ok {
			t.Errorf("%v: err = %v, want ok = %v", tc.args, err, tc.ok)
		}
	}
	for _, sc := range []Scenario{{ReadAhead: "bogus"}, {Vec: "bogus"}, {Journal: "bogus"}, {MemBytes: 8192}} {
		if _, err := sc.Options(); err == nil {
			t.Errorf("%+v: Options accepted an unknown name", sc)
		}
	}
	for name, opt := range map[string]Option{
		"one page of memory": WithMemBytes(8192),
		"negative memory":    WithMemBytes(-1 << 20),
		"unaligned MaxPhys":  func(o *Options) { o.Driver = &driver.Config{MaxPhys: 1000} },
		"negative MaxPhys":   func(o *Options) { o.Driver = &driver.Config{MaxPhys: -512} },
	} {
		if m, err := New(RunA(), opt); err == nil {
			m.Close()
			t.Errorf("%s: New built a machine", name)
		}
	}
}

// TestScenarioFlagsBuildVolume pins the -vol flag family against the
// vol.Config cmd/faultlab used to assemble by hand: level aliases, the
// per-level member defaults, order independence, and no volume at all
// unless -vol names one.
func TestScenarioFlagsBuildVolume(t *testing.T) {
	for _, tc := range []struct {
		args string
		want *vol.Config
	}{
		{"-vol raid5 -members 4 -stripe 16 -degraded 1", &vol.Config{Level: vol.RAID5, Members: 4, StripeKB: 16, Degraded: []int{1}}},
		{"-degraded 1 -stripe 16 -members 4 -vol raid5", &vol.Config{Level: vol.RAID5, Members: 4, StripeKB: 16, Degraded: []int{1}}},
		{"-vol raid5", &vol.Config{Level: vol.RAID5, Members: 3}},
		{"-vol concat", &vol.Config{Level: vol.Concat, Members: 1}},
		{"-vol stripe", &vol.Config{Level: vol.RAID0, Members: 2}},
		{"-vol raid1 -degraded 0,1", &vol.Config{Level: vol.RAID1, Members: 2, Degraded: []int{0, 1}}},
		{"-members 4 -stripe 16", nil},
		{"", nil},
	} {
		sc, err := parseScenario(strings.Fields(tc.args)...)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if !reflect.DeepEqual(sc.Volume, tc.want) {
			t.Errorf("%q: volume = %+v, want %+v", tc.args, sc.Volume, tc.want)
		}
	}
	sc, err := parseScenario("-seed", "7", "-mem", "4")
	if err != nil || sc.Seed != 7 || sc.MemBytes != 4<<20 {
		t.Errorf("-seed 7 -mem 4: seed %d mem %d err %v", sc.Seed, sc.MemBytes, err)
	}
}

// TestScenarioOptionsSelectReadAheadPolicy: each -ra name installs its
// policy over the run's fixed default, and "off" installs none.
func TestScenarioOptionsSelectReadAheadPolicy(t *testing.T) {
	for _, tc := range []struct{ ra, want string }{
		{"", "fixed"}, {"fixed", "fixed"}, {"adaptive", "adaptive"}, {"off", ""},
	} {
		sc := Scenario{Run: RunA(), ReadAhead: tc.ra}
		opts, err := sc.Options()
		if err != nil {
			t.Fatal(err)
		}
		o := sc.Run.Options()
		for _, fn := range opts {
			fn(&o)
		}
		got := ""
		if o.Engine.Prefetch != nil {
			got = o.Engine.Prefetch.Name()
		}
		if got != tc.want {
			t.Errorf("-ra %q installed policy %q, want %q", tc.ra, got, tc.want)
		}
	}
}

// FuzzScenarioFlags: any command line, run through the shared
// machine-shape flags and then Options, ends in an error or in options
// that apply cleanly and describe the scenario that was parsed — never a
// panic.
func FuzzScenarioFlags(f *testing.F) {
	for _, args := range []string{
		"",
		"-seed 7 -mem 4",
		"-ra adaptive -vec sieve -journal wal -vol mirror",
		"-degraded 1 -stripe 16 -members 4 -vol raid5",
		"-vol raid6 -members 3",
		"-mem 17592186044424",
		"-mem -1 -members -2 -degraded ,",
		"-vol concat -members 0 -stripe -8 -degraded 9",
	} {
		f.Add(args)
	}
	f.Fuzz(func(t *testing.T, line string) {
		sc, err := parseScenario(strings.Fields(line)...)
		if err != nil {
			return
		}
		opts, err := sc.Options()
		if err != nil {
			return
		}
		o := RunA().Options()
		for _, fn := range opts {
			fn(&o)
		}
		if o.Seed != sc.Seed || o.MemBytes != sc.MemBytes ||
			(o.Mkfs.LogBlocks > 0) != sc.Journaled() || !reflect.DeepEqual(o.Volume, sc.Volume) {
			t.Fatalf("%q: options %+v do not describe scenario %+v", line, o, sc)
		}
	})
}
