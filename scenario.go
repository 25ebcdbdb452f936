package ufsclust

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"ufsclust/internal/prefetch"
	"ufsclust/internal/vec"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// Scenario declares a machine shape once, as plain data: which of the
// paper's runs, the seed and memory, the read-ahead, vectored-I/O and
// journal modes under their command-line names, and an optional volume.
// The harnesses (internal/iobench, internal/faultlab) and every command
// built on them take one, so a sweep varies a Scenario field instead of
// threading the knob through each harness and flag set.
type Scenario struct {
	Run      RunConfig
	Seed     int64
	MemBytes int64 // 0 = the paper's 8 MB

	ReadAhead string // "fixed" (or ""), "adaptive", "off"
	Vec       string // "auto" (or ""), "naive", "sieve", "list"
	Journal   string // "off" (or ""), "wal"

	Volume *vol.Config // nil = the single sd0
}

// journal resolves the journal mode name: whether the machine runs the
// metadata journal.
func (sc Scenario) journal() (bool, error) {
	switch strings.ToLower(sc.Journal) {
	case "", "off":
		return false, nil
	case "wal":
		return true, nil
	}
	return false, fmt.Errorf("unknown journal mode %q (want off or wal)", sc.Journal)
}

// Journaled reports whether the scenario's machine runs the metadata
// journal.
func (sc Scenario) Journaled() bool {
	on, _ := sc.journal()
	return on
}

// Options translates the scenario into machine options. An unknown mode
// name or an impossible memory size is an error.
func (sc Scenario) Options() ([]Option, error) {
	if err := checkMem(sc.MemBytes); err != nil {
		return nil, err
	}
	opts := []Option{WithSeed(sc.Seed), WithMemBytes(sc.MemBytes)}
	switch strings.ToLower(sc.ReadAhead) {
	case "", "fixed": // the run configuration's one-cluster read-ahead
	case "adaptive":
		opts = append(opts, WithReadAhead(prefetch.NewAdaptive(prefetch.AdaptiveConfig{})))
	case "off":
		opts = append(opts, WithReadAhead(prefetch.Off()))
	default:
		return nil, fmt.Errorf("unknown read-ahead policy %q", sc.ReadAhead)
	}
	switch strings.ToLower(sc.Vec) {
	case "", "auto": // the engine's density-threshold pick
	case "naive":
		opts = append(opts, WithVecStrategy(vec.UseNaive()))
	case "sieve":
		opts = append(opts, WithVecStrategy(vec.UseSieve()))
	case "list":
		opts = append(opts, WithVecStrategy(vec.UseList()))
	default:
		return nil, fmt.Errorf("unknown vec strategy %q", sc.Vec)
	}
	if on, err := sc.journal(); err != nil {
		return nil, err
	} else if on {
		opts = append(opts, WithJournal(wal.Config{}))
	}
	if sc.Volume != nil {
		opts = append(opts, WithVolume(*sc.Volume))
	}
	return opts, nil
}

// New assembles the scenario's machine; extra options (a fault plan, a
// boot image, a telemetry writer) apply on top.
func (sc Scenario) New(extra ...Option) (*Machine, error) {
	opts, err := sc.Options()
	if err != nil {
		return nil, err
	}
	return New(sc.Run, append(opts, extra...)...)
}

// RegisterFlags registers the machine-shape flags every command shares
// — -seed -mem -ra -vec -journal -vol -members -stripe -degraded — with
// sc as their destination. The seed's default is sc's current value.
// The four volume flags resolve into sc.Volume as they are parsed, in
// any order; without -vol the other three are ignored. Mode names are
// checked by Options, so a command validates them by calling it once
// after parsing.
func (sc *Scenario) RegisterFlags(fs *flag.FlagSet) {
	fs.Int64Var(&sc.Seed, "seed", sc.Seed, "simulation seed")
	fs.Func("mem", "physical memory in MB (default the paper's 8)", func(s string) error {
		mb, err := strconv.ParseInt(s, 10, 64)
		if err == nil && (mb > math.MaxInt64>>20 || mb < math.MinInt64>>20) {
			err = fmt.Errorf("%d MB does not fit in bytes", mb)
		}
		sc.MemBytes = mb << 20
		return err
	})
	fs.StringVar(&sc.ReadAhead, "ra", "fixed", "read-ahead policy (fixed, adaptive, off)")
	fs.StringVar(&sc.Vec, "vec", "auto", "Readv/Writev strategy (auto, naive, sieve, list)")
	fs.StringVar(&sc.Journal, "journal", "off", "metadata journal (off, wal)")

	// cfg collects the volume flags; once -vol has named a level every
	// further flag re-resolves sc.Volume from it.
	var cfg vol.Config
	named := false
	resolve := func() {
		if !named {
			return
		}
		c := cfg
		if c.Members == 0 {
			switch c.Level {
			case vol.RAID5:
				c.Members = 3
			case vol.Concat:
				c.Members = 1
			default:
				c.Members = 2
			}
		}
		sc.Volume = &c
	}
	intFlag := func(dst *int) func(string) error {
		return func(s string) (err error) {
			*dst, err = strconv.Atoi(s)
			resolve()
			return err
		}
	}
	fs.Func("vol", "run on a volume: concat, raid0|stripe, raid1|mirror, raid5", func(s string) error {
		lvl, ok := vol.ParseLevel(s)
		if !ok {
			return fmt.Errorf("unknown volume level %q", s)
		}
		cfg.Level, named = lvl, true
		resolve()
		return nil
	})
	fs.Func("members", "volume member count (default per level)", intFlag(&cfg.Members))
	fs.Func("stripe", "stripe unit in KB for raid0/raid5 (default 32)", intFlag(&cfg.StripeKB))
	fs.Func("degraded", "comma-separated members dead from boot (redundant levels)", func(s string) error {
		cfg.Degraded = nil
		for _, f := range strings.Split(s, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			cfg.Degraded = append(cfg.Degraded, i)
		}
		resolve()
		return nil
	})
}
