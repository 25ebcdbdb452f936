package ufsclust

import (
	"io"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/fault"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/vec"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// Option adjusts the machine options derived from a RunConfig. Options
// compose left to right, so later options win.
type Option func(*Options)

// WithSeed sets the simulation's RNG seed.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithMemBytes sets physical memory (0 keeps the paper's 8 MB).
func WithMemBytes(n int64) Option {
	return func(o *Options) { o.MemBytes = n }
}

// WithDiskParams replaces the drive characteristics.
func WithDiskParams(p disk.Params) Option {
	return func(o *Options) { o.Disk = &p }
}

// WithDriverConfig replaces the driver configuration.
func WithDriverConfig(c driver.Config) Option {
	return func(o *Options) { o.Driver = &c }
}

// WithWriteLimit sets the per-file cap on queued write bytes
// (0 disables the limit), overriding the RunConfig's choice.
func WithWriteLimit(bytes int64) Option {
	return func(o *Options) { o.Mount.WriteLimit = bytes }
}

// WithFreeBehind overrides the RunConfig's free-behind setting.
func WithFreeBehind(on bool) Option {
	return func(o *Options) { o.Engine.FreeBehind = on }
}

// WithReadAhead selects the clustered engine's read-ahead policy:
//
//	WithReadAhead(prefetch.NewFixed())                       // the paper's one-cluster nextrio (the default)
//	WithReadAhead(prefetch.NewAdaptive(prefetch.AdaptiveConfig{})) // confidence-driven ramping window
//	WithReadAhead(prefetch.Off())                            // no read-ahead at all
//
// Policies carry per-file detector state, so build a fresh policy per
// machine — never share one instance across machines (inode numbers
// collide). The default fixed policy is byte-identical to the pre-policy
// engine: same events, same trace, same goldens.
func WithReadAhead(pol prefetch.Policy) Option {
	return func(o *Options) {
		o.Engine.Prefetch = pol
		o.Engine.ReadAhead = pol != nil
	}
}

// WithVecStrategy selects how Readv/Writev service multi-element
// vectors (see internal/vec):
//
//	WithVecStrategy(vec.Auto(0))    // density-threshold sieve/list pick (the default)
//	WithVecStrategy(vec.UseSieve()) // always data sieving
//	WithVecStrategy(vec.UseList())  // always true list I/O
//	WithVecStrategy(vec.UseNaive()) // per-piece baseline
//
// Single-element vectors always take the scalar Read/Write paths,
// whatever the strategy.
func WithVecStrategy(s vec.Strategy) Option {
	return func(o *Options) { o.Engine.Vec = s }
}

// WithTelemetry streams every telemetry event to w as JSON Lines.
// Same-seed runs produce byte-identical streams.
func WithTelemetry(w io.Writer) Option {
	return func(o *Options) { o.EventJSONL = w }
}

// WithFaultPlan installs a fault plan: media errors and power cuts
// injected at deterministic points (see internal/fault). Same seed,
// same plan, same workload — same faults:
//
//	m, _ := ufsclust.New(ufsclust.RunA(),
//		ufsclust.WithFaultPlan(fault.Plan{Rules: []fault.Rule{
//			fault.FailNth(3, fault.Writes, 1), // 3rd write errors once, then succeeds
//		}}))
func WithFaultPlan(pl fault.Plan) Option {
	return func(o *Options) { o.Fault = pl }
}

// WithImage boots the machine from platter snapshots instead of running
// mkfs: one image for the bare sd0 (disk.Disk's Snapshot), one per
// member in member order for a volume machine (vol.Volume.Snapshot).
// The snapshots are deep-copied; the donor machine is not shared. New
// fails if the count is not the machine's member count or an image is
// nil.
func WithImage(imgs ...*disk.Image) Option {
	return func(o *Options) { o.Images, o.Recover = imgs, false }
}

// WithRecovery is WithImage plus recovery before mounting — the
// reboot-and-fsck path after a power cut. An unjournaled image is
// repaired by ufs.Repair and the report lands in Machine.RepairLog.
func WithRecovery(imgs ...*disk.Image) Option {
	return func(o *Options) { o.Images, o.Recover = imgs, true }
}

// WithJournal reserves an on-disk log region at mkfs time and mounts
// the machine with the write-ahead metadata journal attached (see
// internal/wal). Metadata mutations are grouped into transactions,
// committed to the log with a checksum, and copied home lazily at
// checkpoints; recovery after a power cut becomes a bounded log replay
// instead of a full-image repair — WithRecovery notices the log region
// in the restored superblock and replays it automatically:
//
//	m, _ := ufsclust.New(ufsclust.RunA(),
//		ufsclust.WithJournal(wal.Config{}))
//
// The zero Config takes the defaults (64-block log, one log transfer
// per record); Clustered batches each commit's log sectors into
// MaxPhys-sized transfers. Without this option nothing changes: no log
// region is reserved and every event stream is byte-identical to the
// unjournaled machine.
func WithJournal(cfg wal.Config) Option {
	return func(o *Options) { o.Journal = &cfg }
}

// WithVolume composes the machine's storage from several member drives
// instead of the single sd0 — a concat, stripe set, mirror, or RAID-5
// array (see internal/vol). The file system sees one synthetic drive of
// the composed data capacity; the driver keeps one request in flight
// per member so the spindles seek concurrently:
//
//	m, _ := ufsclust.New(ufsclust.RunA(),
//		ufsclust.WithVolume(vol.Config{Level: vol.RAID5, Members: 4}))
//
// Options.Disk, if also set, becomes the member drive template.
func WithVolume(cfg vol.Config) Option {
	return func(o *Options) { o.Volume = &cfg }
}

// New assembles a machine for one of the paper's run configurations,
// with functional options applied on top — the constructor sweeps use
// instead of mutating the Options struct by hand:
//
//	m, err := ufsclust.New(ufsclust.RunA(),
//		ufsclust.WithMemBytes(16<<20),
//		ufsclust.WithSeed(7))
func New(rc RunConfig, opts ...Option) (*Machine, error) {
	o := rc.Options()
	for _, fn := range opts {
		fn(&o)
	}
	return NewMachine(o)
}
