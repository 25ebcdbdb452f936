// Package vol composes N simulated drives into one logical block
// device: a concatenation, a stripe set (RAID-0), a mirror (RAID-1), or
// a rotating-parity array (RAID-5). A Volume implements the same
// disk.Device contract as a bare drive, so the driver, the file
// systems, and the offline tools (mkfs, fsck, repair) mount on it
// unchanged; the driver keeps one request in flight per member, so
// member seeks overlap — the ROADMAP's "more spindles = more scale".
//
// Addressing: the volume exposes a synthetic uniform geometry of the
// composed data capacity. RAID-0 and RAID-5 interleave fixed stripe
// units across the members; RAID-5 additionally rotates one parity
// chunk per stripe row (left-asymmetric), writes partial rows by
// read-modify-write and full rows by direct parity computation, and
// serves reads of a failed member by XOR reconstruction. RAID-1
// duplicates writes to every member and rotates reads across the
// healthy ones. A one-member concat is the identity composition:
// requests pass through untouched and the machine replays the
// pre-volume golden traces byte for byte.
//
// Failure model: a member transfer error (injected by a fault plan)
// fails that member permanently — the drive already models its internal
// retries — and a redundant volume fails over: the whole logical
// request is reissued against the survivors. Non-redundant levels
// propagate the error to the driver, whose retry/give-up machinery is
// unchanged. Rebuild reconstructs a replaced member offline;
// CheckParity verifies the redundancy invariant across the whole array.
package vol

import (
	"fmt"

	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// Level selects the composition discipline.
type Level uint8

// Composition levels.
const (
	// Concat appends the members' sector spaces end to end.
	Concat Level = iota
	// RAID0 interleaves stripe units across all members.
	RAID0
	// RAID1 mirrors every write to all members; reads rotate across
	// the healthy ones.
	RAID1
	// RAID5 interleaves stripe units with one rotating parity chunk
	// per row; survives any single member failure.
	RAID5
)

func (l Level) String() string {
	switch l {
	case Concat:
		return "concat"
	case RAID0:
		return "raid0"
	case RAID1:
		return "raid1"
	case RAID5:
		return "raid5"
	}
	return "unknown"
}

// ParseLevel maps a command-line level name to a Level.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "concat":
		return Concat, true
	case "raid0", "stripe":
		return RAID0, true
	case "raid1", "mirror":
		return RAID1, true
	case "raid5":
		return RAID5, true
	}
	return 0, false
}

// DefaultStripeKB is the stripe unit used when Config.StripeKB is zero.
const DefaultStripeKB = 32

// Config describes a volume. All members share one set of drive
// parameters: mixed-geometry arrays are not modeled (the striped levels
// would be limited by the smallest member anyway).
type Config struct {
	Level   Level
	Members int // member drive count

	// StripeKB is the stripe unit per member in KB (RAID-0/RAID-5);
	// 0 means DefaultStripeKB. Must divide the member capacity.
	StripeKB int

	// Member is the drive-parameter template for every member; nil
	// means disk.DefaultParams().
	Member *disk.Params

	// Degraded lists members that are failed from boot — the
	// "one spindle is already dead" configurations the degraded-mode
	// sweeps run. Redundant levels only.
	Degraded []int
}

// Stats counts volume-level activity. Member drive activity lives in
// each member's disk.Stats and is aggregated by AttachTelemetry.
type Stats struct {
	SubRequests      int64 // member requests issued (incl. parity I/O)
	FullStripeWrites int64 // RAID-5 rows written without a parity read
	ParityRMWRows    int64 // RAID-5 rows written read-modify-write
	DegradedReads    int64 // pieces served by reconstruction
	DegradedWrites   int64 // rows/requests written around a dead member
	MemberFails      int64 // members failed (fault or administrative)
	Failovers        int64 // whole requests reissued after a member fail
}

// Volume is a composed block device. It has no service process of its
// own: Submit translates each logical request into member requests
// (gathering, scattering, and computing parity in completion context)
// and the member drives' own service processes provide the overlap.
type Volume struct {
	name    string
	cfg     Config
	s       *sim.Sim
	members []*disk.Disk
	failed  []bool
	ss      int64 // stripe unit in sectors (striped levels)
	msize   int64 // per-member capacity in sectors
	geom    *disk.Geometry
	rr      int // RAID-1 read rotor over healthy members

	// RAID-5 parity-row locks: rowBusy marks rows with an exclusive
	// holder, rowWait queues parked acquisitions (see acquireRows).
	rowBusy map[int64]bool
	rowWait map[int64][]*volReq

	Stats Stats

	// Telemetry; nil (and nil-safe) until AttachTelemetry.
	bus *telemetry.Bus
}

// New validates cfg, creates the member drives (named sd0..sdN-1, with
// their service processes on s), and returns the composed device.
func New(s *sim.Sim, name string, cfg Config) (*Volume, error) {
	if cfg.Members < 1 {
		return nil, fmt.Errorf("vol: %s: need at least one member", cfg.Level)
	}
	switch cfg.Level {
	case Concat:
	case RAID0, RAID1:
		if cfg.Members < 2 {
			return nil, fmt.Errorf("vol: %s: need >= 2 members", cfg.Level)
		}
	case RAID5:
		if cfg.Members < 3 {
			return nil, fmt.Errorf("vol: %s: need >= 3 members", cfg.Level)
		}
	default:
		return nil, fmt.Errorf("vol: unknown level %d", cfg.Level)
	}
	mp := disk.DefaultParams()
	if cfg.Member != nil {
		mp = *cfg.Member
	}
	if mp.Geom == nil {
		mp.Geom = disk.DefaultGeometry()
	}
	v := &Volume{
		name:    name,
		cfg:     cfg,
		s:       s,
		failed:  make([]bool, cfg.Members),
		msize:   mp.Geom.TotalSectors(),
		rowBusy: make(map[int64]bool),
		rowWait: make(map[int64][]*volReq),
	}
	striped := cfg.Level == RAID0 || cfg.Level == RAID5
	if striped {
		if cfg.StripeKB == 0 {
			cfg.StripeKB = DefaultStripeKB
			v.cfg.StripeKB = DefaultStripeKB
		}
		v.ss = int64(cfg.StripeKB) * 1024 / disk.SectorSize
		if int64(cfg.StripeKB)*1024%disk.SectorSize != 0 || v.ss <= 0 {
			return nil, fmt.Errorf("vol: stripe %d KB is not a positive sector multiple", cfg.StripeKB)
		}
		if v.msize%v.ss != 0 {
			return nil, fmt.Errorf("vol: member capacity %d sectors not a multiple of the %d-sector stripe unit", v.msize, v.ss)
		}
	}
	if cfg.Members > 1 && len(mp.Geom.Zones) != 1 {
		// The synthetic geometry is a single uniform zone; a zoned
		// member would make the composed address space lie about where
		// zone boundaries fall. A one-member concat passes the member
		// geometry through untouched, zones and all.
		return nil, fmt.Errorf("vol: composed volumes need uniform (single-zone) members")
	}
	for _, i := range cfg.Degraded {
		if i < 0 || i >= cfg.Members {
			return nil, fmt.Errorf("vol: degraded member %d out of range", i)
		}
		if cfg.Level != RAID1 && cfg.Level != RAID5 {
			return nil, fmt.Errorf("vol: %s cannot run degraded", cfg.Level)
		}
		v.failed[i] = true
	}
	if n := v.failedCount(); n > v.tolerance() {
		return nil, fmt.Errorf("vol: %s tolerates %d failed members, %d configured", cfg.Level, v.tolerance(), n)
	}

	for i := 0; i < cfg.Members; i++ {
		d := disk.New(s, fmt.Sprintf("sd%d", i), mp)
		if cfg.Members > 1 {
			d.SetEventLabel(d.Name())
		}
		v.members = append(v.members, d)
	}

	if v.passthrough() {
		v.geom = mp.Geom
		return v, nil
	}
	g := mp.Geom
	dataCyl := g.Cylinders() * v.dataMembers()
	if cfg.Level == RAID1 {
		dataCyl = g.Cylinders()
	}
	geom, err := disk.NewGeometry(g.Heads, g.RPM, disk.Zone{Cylinders: dataCyl, SPT: g.Zones[0].SPT})
	if err != nil {
		return nil, fmt.Errorf("vol: synthetic geometry: %w", err)
	}
	v.geom = geom
	return v, nil
}

// passthrough reports the identity composition: a one-member concat,
// which forwards requests untouched.
func (v *Volume) passthrough() bool {
	return v.cfg.Level == Concat && len(v.members) == 1
}

// dataMembers is how many members' worth of capacity holds data.
func (v *Volume) dataMembers() int {
	switch v.cfg.Level {
	case RAID5:
		return v.cfg.Members - 1
	case RAID1:
		return 1
	}
	return v.cfg.Members
}

// tolerance is how many member failures the level survives.
func (v *Volume) tolerance() int {
	switch v.cfg.Level {
	case RAID1:
		return v.cfg.Members - 1
	case RAID5:
		return 1
	}
	return 0
}

func (v *Volume) failedCount() int {
	n := 0
	for _, f := range v.failed {
		if f {
			n++
		}
	}
	return n
}

// Name returns the volume's name.
func (v *Volume) Name() string { return v.name }

// Geom returns the synthetic data-capacity geometry (the member
// geometry itself for a one-member concat).
func (v *Volume) Geom() *disk.Geometry { return v.geom }

// Channels reports one service channel per member: the driver keeps
// that many requests in flight so the spindles seek concurrently.
func (v *Volume) Channels() int { return len(v.members) }

// WriteUnit is one RAID-5 parity row of data — the only composition
// whose partial writes read before they write (see planRow). Every
// other level reports 0.
func (v *Volume) WriteUnit() int {
	if v.cfg.Level != RAID5 {
		return 0
	}
	return v.dataMembers() * int(v.ss)
}

// Members returns the member drives, in member order. Callers must not
// submit to members directly while the volume is live.
func (v *Volume) Members() []*disk.Disk { return v.members }

// Failed returns the indices of failed members, in order.
func (v *Volume) Failed() []int {
	var out []int
	for i, f := range v.failed {
		if f {
			out = append(out, i)
		}
	}
	return out
}

// FailMember marks member i failed — the administrative "pull the
// drive" path; the fault-plan path arrives here too, via the failover
// logic. Failing a member beyond the level's tolerance is allowed (the
// volume is then broken; redundant reads start erroring), matching
// what pulling two drives from a RAID-5 does.
func (v *Volume) FailMember(i int) {
	if i < 0 || i >= len(v.members) {
		panic("vol: member index out of range") // simlint:invariant -- member indices come from the volume's own mapping
	}
	if v.failed[i] {
		return
	}
	v.failed[i] = true
	v.Stats.MemberFails++
	v.bus.Emit(telemetry.Event{
		T:     v.s.Now(),
		Kind:  telemetry.EvMemberFail,
		Depth: int64(i),
		Dev:   v.members[i].Name(),
	})
}

// AttachFaults connects the machine's fault injector to every member:
// member-scoped media rules (fault.Match.Dev) fail individual spindles,
// and a power cut freezes each member's torn transfer.
func (v *Volume) AttachFaults(inj *fault.Injector) {
	for _, d := range v.members {
		d.AttachFaults(inj)
	}
}

// AttachTelemetry registers the volume's counters and connects every
// member to the event bus. The aggregate disk.* names a single drive
// registers are preserved — summed across members — so existing
// consumers (simstat, the metrics manifest) read a composed volume
// unchanged; per-member activity appears under vol.<member>.*, and
// volume-level composition activity under vol.*. A one-member concat
// registers only its drive's disk.* names.
func (v *Volume) AttachTelemetry(tel *telemetry.Telemetry) {
	v.bus = tel.Bus
	if v.passthrough() {
		// Identity composition: the single member registers the
		// standard disk.* names itself, and nothing else, exactly like
		// a bare drive — a one-member concat has no composition
		// activity to count.
		v.members[0].AttachTelemetry(tel)
		return
	}
	disk.AttachMemberTelemetry(tel, "vol.", v.members)
	r := tel.Reg
	r.Counter("vol.sub_requests", func() int64 { return v.Stats.SubRequests })
	r.Counter("vol.full_stripe_writes", func() int64 { return v.Stats.FullStripeWrites })
	r.Counter("vol.parity_rmw_rows", func() int64 { return v.Stats.ParityRMWRows })
	r.Counter("vol.degraded_reads", func() int64 { return v.Stats.DegradedReads })
	r.Counter("vol.degraded_writes", func() int64 { return v.Stats.DegradedWrites })
	r.Counter("vol.member_fails", func() int64 { return v.Stats.MemberFails })
	r.Counter("vol.failovers", func() int64 { return v.Stats.Failovers })
	r.Gauge("vol.failed_members", func() int64 { return int64(v.failedCount()) })
}
