package disk

import (
	"errors"
	"math"

	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// ErrMedia is the drive-level error for a failed transfer (injected by
// a fault plan). The driver wraps it in a typed DevError once retries
// are exhausted; errors.Is(err, disk.ErrMedia) sees through the wrap.
var ErrMedia = errors.New("disk: media error")

// Device is the block-device contract shared by a bare Disk and an
// internal/vol volume composing several. The driver drives one Device;
// the offline tools (mkfs, fsck, repair) address its image through the
// same sector space the driver submits against.
type Device interface {
	// Name identifies the device ("sd0", "vol0").
	Name() string
	// Geom describes the device's addressable geometry. For a volume it
	// is synthetic: a uniform single-zone drive of the composed data
	// capacity, so file-system layout code works unchanged.
	Geom() *Geometry
	// Submit queues one request; completion is delivered through
	// Request.Done in scheduler context. Safe from process or scheduler
	// context.
	Submit(r *Request)
	// Channels is how many requests the device can usefully service at
	// once: 1 for a single spindle, the member count for a volume. The
	// driver keeps up to this many requests in flight so member seeks
	// overlap.
	Channels() int
	// WriteUnit is the aligned write size, in sectors, below which a
	// write costs the device extra reads: one full parity row of a
	// RAID-5 volume. 0 means writes of every size cost the same (a
	// single spindle, a concatenation, a stripe set, a mirror). It is a
	// hint to the layer that sizes write clusters, never a requirement.
	WriteUnit() int
	// ReadImage / WriteImage access the platter content without
	// consuming simulated time — the offline path. A volume translates
	// addresses and maintains redundancy (mirrors, parity) on offline
	// writes too.
	ReadImage(sector int64, buf []byte)
	WriteImage(sector int64, data []byte)
}

// Params are the mechanical and electronic characteristics of a drive.
type Params struct {
	Geom *Geometry

	SeekMin    Time // single-cylinder seek (including settle)
	SeekMax    Time // full-stroke seek
	HeadSwitch Time // head-to-head switch on the same cylinder

	// SkewSectors is the track skew: logical sector 0 of each successive
	// track is rotated by this many sector positions so that a head
	// switch completes before the next logical sector arrives. Without
	// skew, contiguous multi-track transfers would lose a full rotation
	// at every track boundary.
	SkewSectors int

	// CmdOverhead is the fixed controller/command time charged per
	// request (bus arbitration, command decode).
	CmdOverhead Time

	// CmdJitter adds a uniform random [0, CmdJitter) to each request's
	// command overhead, modeling the variable controller and host
	// latency of the era. It is what occasionally makes a
	// rotdelay-placed file system miss its gap window — without it the
	// simulated legacy system is unrealistically punctual. Drawn from
	// the simulation's seeded RNG, so runs stay reproducible.
	CmdJitter Time

	// TrackBuffer enables the on-board one-track read cache. It is a
	// write-through cache: writes always pay full mechanical cost (the
	// paper: promising stability for buffered writes would be a lie).
	TrackBuffer bool

	// BusRate is the electronics transfer rate in bytes/second used for
	// track-buffer hits.
	BusRate int64
}

// ErrorLatency is the extra time a failed transfer spends before the
// drive reports the error (internal retries, ECC attempts). Real drives
// of the era took tens of milliseconds to give up on a sector.
const ErrorLatency = 15 * Millisecond

// DefaultParams returns values representative of a 1990 3.5" SCSI drive
// and calibrated against the paper's numbers (4 ms block time, ~1.5 MB/s
// deliverable bandwidth).
func DefaultParams() Params {
	return Params{
		Geom:        DefaultGeometry(),
		SeekMin:     2500 * Microsecond,
		SeekMax:     30 * Millisecond,
		HeadSwitch:  1 * Millisecond,
		SkewSectors: 6,
		CmdOverhead: 700 * Microsecond,
		CmdJitter:   3900 * Microsecond,
		TrackBuffer: true,
		BusRate:     4 << 20, // 4 MB/s SCSI-1 sync
	}
}

// Request is one I/O operation presented to the drive. The driver layer
// (internal/driver) queues and sorts these; the drive itself services
// them in arrival order.
type Request struct {
	Sector int64
	Count  int // sectors
	Write  bool
	// Data holds the bytes to write, or receives the bytes read; its
	// length must be Count*SectorSize.
	Data []byte
	// Done is invoked in scheduler context when the operation completes
	// (the "interrupt"). May be nil.
	Done func()
	// Err is set before Done runs when the transfer failed (ErrMedia).
	// On a failed read Data is untouched; on a failed write the media
	// is untouched.
	Err error

	queued Time
}

// Stats accumulates drive-level accounting.
type Stats struct {
	Reads, Writes               int64
	SectorsRead, SectorsWritten int64
	SeekCount                   int64
	SeekTime                    Time
	RotWait                     Time  // rotational latency waited
	XferTime                    Time  // mechanical transfer time
	BusTime                     Time  // track-buffer (electronic) transfer time
	BufHits, BufMisses          int64 // per segment, reads only
	BusyTime                    Time  // total time servicing requests
	QueueWait                   Time  // time requests spent queued
	MediaErrors                 int64 // transfers failed by the fault plan
}

// Disk is a simulated drive. Submit requests with Submit; a dedicated
// simulation process services them one at a time.
type Disk struct {
	P     Params
	Sim   *sim.Sim
	name  string
	label string // member tag on emitted events; empty for a bare drive

	// mechanical state
	curCyl   int
	curTrack int64

	// track buffer state: the track being cached, the time its fill
	// began, and the logical in-track sector the fill began at.
	tbTrack     int64
	tbValid     bool
	tbFillStart Time
	tbFillSect  int

	// image is the sparse platter content, in 64 KB chunks.
	image map[int64][]byte

	q     []*Request
	qWait sim.WaitQ

	// inj, when attached, decides which transfers fail; torn tracks
	// the write transfer in flight so a power cut can freeze the image
	// with exactly the sectors physically written by the cut instant.
	inj  *fault.Injector
	torn tornXfer

	Stats Stats

	// Telemetry; all nil (and nil-safe) until AttachTelemetry.
	bus                      *telemetry.Bus
	seekH, rotH, xferH, svcH *telemetry.Histogram
}

const chunkSectors = 128 // 64 KB image chunks

// New creates a drive and starts its service process on s.
func New(s *sim.Sim, name string, p Params) *Disk {
	if p.Geom == nil {
		p.Geom = DefaultGeometry()
	}
	d := &Disk{P: p, Sim: s, name: name, image: make(map[int64][]byte)}
	d.qWait.Name = name + ".queue"
	s.SpawnDaemon(name, d.serve)
	return d
}

// Name returns the drive's name.
func (d *Disk) Name() string { return d.name }

// Channels reports a single spindle: one request in service at a time.
func (d *Disk) Channels() int { return 1 }

// WriteUnit reports no preferred write size: a spindle writes any
// sector run without reading first.
func (d *Disk) WriteUnit() int { return 0 }

// SetEventLabel tags every event this drive emits with a member label
// (telemetry.Event.Dev). Volumes label their members so fault plans and
// event consumers can tell spindles apart; a bare drive stays unlabeled
// and replays the pre-volume golden streams byte-for-byte.
func (d *Disk) SetEventLabel(label string) { d.label = label }

// counters is the disk.* counter set, declared once. A bare drive
// registers each as disk.<name> over its own Stats; a volume registers
// the same names summed over its members, and the member rows once more
// per spindle under the volume's own prefix.
var counters = []struct {
	name   string
	get    func(*Stats) int64
	member bool
}{
	{"reads", func(st *Stats) int64 { return st.Reads }, true},
	{"writes", func(st *Stats) int64 { return st.Writes }, true},
	{"sectors_read", func(st *Stats) int64 { return st.SectorsRead }, true},
	{"sectors_written", func(st *Stats) int64 { return st.SectorsWritten }, true},
	{"seeks", func(st *Stats) int64 { return st.SeekCount }, true},
	{"seek_time_ns", func(st *Stats) int64 { return int64(st.SeekTime) }, false},
	{"rot_wait_ns", func(st *Stats) int64 { return int64(st.RotWait) }, false},
	{"xfer_time_ns", func(st *Stats) int64 { return int64(st.XferTime) }, false},
	{"bus_time_ns", func(st *Stats) int64 { return int64(st.BusTime) }, false},
	{"buf_hits", func(st *Stats) int64 { return st.BufHits }, false},
	{"buf_misses", func(st *Stats) int64 { return st.BufMisses }, false},
	{"busy_time_ns", func(st *Stats) int64 { return int64(st.BusyTime) }, true},
	{"queue_wait_ns", func(st *Stats) int64 { return int64(st.QueueWait) }, true},
	{"media_errors", func(st *Stats) int64 { return st.MediaErrors }, true},
}

// AttachTelemetry registers the drive's counters and latency
// histograms and connects it to the event bus. Call once, at machine
// construction, before any I/O.
func (d *Disk) AttachTelemetry(tel *telemetry.Telemetry) {
	AttachMemberTelemetry(tel, "", []*Disk{d})
}

// AttachMemberTelemetry is AttachTelemetry for the spindles of one
// volume: the standard disk.* counters, queue-length gauge and latency
// histograms aggregate all members, so consumers read a volume machine
// like a bare one, and each member's own rows appear once more as
// prefix+<member name>.<counter> (an empty prefix registers none).
func AttachMemberTelemetry(tel *telemetry.Telemetry, prefix string, members []*Disk) {
	r := tel.Reg
	sum := func(get func(*Disk) int64) func() int64 {
		return func() int64 {
			var n int64
			for _, d := range members {
				n += get(d)
			}
			return n
		}
	}
	for _, c := range counters {
		r.Counter("disk."+c.name, sum(func(d *Disk) int64 { return c.get(&d.Stats) }))
	}
	r.Gauge("disk.queue_len", sum(func(d *Disk) int64 { return int64(len(d.q)) }))
	seekH := r.Hist(telemetry.NewHistogram("disk.seek_ns", telemetry.UnitNs, telemetry.TimeBounds()))
	rotH := r.Hist(telemetry.NewHistogram("disk.rotate_ns", telemetry.UnitNs, telemetry.TimeBounds()))
	xferH := r.Hist(telemetry.NewHistogram("disk.transfer_ns", telemetry.UnitNs, telemetry.TimeBounds()))
	svcH := r.Hist(telemetry.NewHistogram("disk.service_ns", telemetry.UnitNs, telemetry.TimeBounds()))
	for _, d := range members {
		d.bus = tel.Bus
		d.seekH, d.rotH, d.xferH, d.svcH = seekH, rotH, xferH, svcH
		if prefix == "" {
			continue
		}
		for _, c := range counters {
			if c.member {
				r.Counter(prefix+d.name+"."+c.name, func() int64 { return c.get(&d.Stats) })
			}
		}
	}
}

// AttachFaults connects a fault injector: the drive calls its Start as
// each transfer begins service, just after io_start, and fails the
// transfers Start names. It also registers a crash hook that freezes
// any write transfer in flight at the cut, torn at sector granularity.
// Faults need no AttachTelemetry.
func (d *Disk) AttachFaults(inj *fault.Injector) {
	d.inj = inj
	inj.OnCrash(d.freezeTorn)
}

// tornXfer is the write transfer currently on the media: armed just
// before the transfer sleep in segment, cleared when the sleep ends.
type tornXfer struct {
	active bool
	sector int64
	buf    []byte
	start  Time // instant the first sector hits the media
	st     Time // per-sector transfer time
}

// freezeTorn runs at a power cut: if a write transfer was in flight,
// apply to the image exactly the whole sectors the head had finished
// by the cut instant. Everything after the cut is lost — including the
// rest of this transfer, because the drive process never resumes once
// the sim stops.
func (d *Disk) freezeTorn(cut sim.Time) {
	t := d.torn
	d.torn.active = false
	if !t.active || cut <= t.start {
		return
	}
	n := int((cut - t.start) / t.st)
	if total := len(t.buf) / SectorSize; n > total {
		n = total
	}
	if n > 0 {
		d.writeImage(t.sector, t.buf[:n*SectorSize])
	}
}

// Geom returns the drive geometry.
func (d *Disk) Geom() *Geometry { return d.P.Geom }

// Submit hands a request to the drive. Safe from process or scheduler
// context. Completion is reported through r.Done.
func (d *Disk) Submit(r *Request) {
	if r.Count <= 0 || r.Sector < 0 || r.Sector+int64(r.Count) > d.P.Geom.TotalSectors() {
		panic("disk: request out of range") // simlint:invariant -- driver validates transfers before queueing
	}
	if len(r.Data) != r.Count*SectorSize {
		panic("disk: request data length mismatch") // simlint:invariant -- driver validates transfers before queueing
	}
	r.queued = d.Sim.Now()
	d.q = append(d.q, r)
	d.qWait.WakeAll()
}

// serve is the drive's service loop.
func (d *Disk) serve(p *sim.Proc) {
	for {
		for len(d.q) == 0 {
			p.Block(&d.qWait)
		}
		r := d.q[0]
		copy(d.q, d.q[1:])
		d.q = d.q[:len(d.q)-1]

		start := p.Now()
		d.Stats.QueueWait += start - r.queued
		ev := telemetry.Event{
			T:      start,
			Kind:   telemetry.EvIOStart,
			Sector: r.Sector,
			Bytes:  int64(r.Count) * SectorSize,
			Depth:  int64(len(d.q)),
			Write:  r.Write,
			Dev:    d.label,
		}
		d.bus.Emit(ev)
		if d.inj != nil && d.inj.Start(ev) {
			ev.Kind, ev.Depth = telemetry.EvFaultInject, 0
			d.bus.Emit(ev)
			d.failService(p)
			r.Err = ErrMedia
			d.Stats.MediaErrors++
			d.Stats.BusyTime += p.Now() - start
		} else {
			seek0, rot0 := d.Stats.SeekTime, d.Stats.RotWait
			xfer0 := d.Stats.XferTime + d.Stats.BusTime
			d.service(p, r)
			svc := p.Now() - start
			d.Stats.BusyTime += svc
			// Per-request phase latencies, from the Stats deltas the service
			// routine accumulated. Seek and rotate observe only when the
			// request paid them; transfer and total service always happen.
			if dt := d.Stats.SeekTime - seek0; dt > 0 {
				d.seekH.Observe(int64(dt))
			}
			if dt := d.Stats.RotWait - rot0; dt > 0 {
				d.rotH.Observe(int64(dt))
			}
			d.xferH.Observe(int64(d.Stats.XferTime + d.Stats.BusTime - xfer0))
			d.svcH.Observe(int64(svc))
			if r.Write {
				d.Stats.Writes++
				d.Stats.SectorsWritten += int64(r.Count)
			} else {
				d.Stats.Reads++
				d.Stats.SectorsRead += int64(r.Count)
			}
		}
		if r.Done != nil {
			// Deliver the completion as a zero-delay event so it runs
			// in scheduler context, like an interrupt, rather than on
			// the drive's own stack.
			done := r.Done
			d.Sim.After(0, done)
		}
	}
}

// service performs one request, sleeping through its mechanical phases.
func (d *Disk) service(p *sim.Proc, r *Request) {
	cmd := d.P.CmdOverhead
	if d.P.CmdJitter > 0 {
		cmd += Time(d.Sim.Rand.Int63n(int64(d.P.CmdJitter)))
	}
	p.Sleep(cmd)
	sector := r.Sector
	remain := r.Count
	buf := r.Data
	for remain > 0 {
		n := d.P.Geom.SectorsLeftOnTrack(sector)
		if n > remain {
			n = remain
		}
		d.segment(p, sector, n, buf[:n*SectorSize], r.Write)
		buf = buf[n*SectorSize:]
		sector += int64(n)
		remain -= n
	}
}

// failService is the service path for a transfer the fault plan
// failed: the drive pays command overhead and its internal error
// recovery time (no arm movement is modeled — the failure is reported
// from wherever the head is), touching neither media nor buffers.
func (d *Disk) failService(p *sim.Proc) {
	cmd := d.P.CmdOverhead
	if d.P.CmdJitter > 0 {
		cmd += Time(d.Sim.Rand.Int63n(int64(d.P.CmdJitter)))
	}
	p.Sleep(cmd + ErrorLatency)
}

// physPos maps a logical in-track sector to its physical rotational
// position, applying track skew.
func (d *Disk) physPos(c CHS) int {
	spt := d.P.Geom.Zones[c.Zone].SPT
	track := d.P.Geom.Track(c)
	return int((int64(c.Sector) + track*int64(d.P.SkewSectors)) % int64(spt))
}

// segment services n sectors that lie on a single track.
func (d *Disk) segment(p *sim.Proc, sector int64, n int, buf []byte, write bool) {
	g := d.P.Geom
	c := g.Locate(sector)
	track := g.Track(c)
	st := g.SectorTime(c.Zone)
	spt := g.Zones[c.Zone].SPT

	if !write && d.P.TrackBuffer && d.tbValid && d.tbTrack == track {
		// Track-buffer hit: wait until the background fill has passed
		// the last sector we need, then transfer at bus rate.
		d.Stats.BufHits++
		last := c.Sector + n - 1
		avail := d.tbFillStart + Time(((last-d.tbFillSect)+spt)%spt+1)*st
		bus := Time(int64(n) * SectorSize * int64(Second) / d.P.BusRate)
		// The bus transfer overlaps the background fill: data streams
		// out as it arrives, so the segment completes at whichever is
		// later — fill of the last sector, or pure bus time.
		end := p.Now() + bus
		if avail > end {
			end = avail
		}
		p.Sleep(end - p.Now())
		d.Stats.BusTime += bus
		d.readImage(sector, buf)
		return
	}
	if !write {
		d.Stats.BufMisses++
	}

	// Seek.
	if c.Cyl != d.curCyl {
		t := d.seekTime(d.curCyl, c.Cyl)
		p.Sleep(t)
		d.Stats.SeekCount++
		d.Stats.SeekTime += t
		d.curCyl = c.Cyl
	} else if track != d.curTrack {
		// Head switch within the cylinder.
		p.Sleep(d.P.HeadSwitch)
	}
	d.curTrack = track

	// Rotational latency: wait for the physical position of the first
	// sector to come under the head. Position is derived from absolute
	// virtual time, so the platter keeps spinning while the drive is
	// idle or seeking.
	target := d.physPos(c)
	tick := (p.Now() + st - 1) / st // next sector boundary index
	cur := int(tick % Time(spt))
	delta := (target - cur + spt) % spt
	xferStart := (tick + Time(delta)) * st
	if wait := xferStart - p.Now(); wait > 0 {
		p.Sleep(wait)
		d.Stats.RotWait += wait
	}

	// Media transfer. For writes, arm the torn-transfer record across
	// the sleep: a power cut lands mid-transfer, and the freeze hook
	// applies exactly the sectors written by then.
	xfer := Time(n) * st
	if write {
		d.torn = tornXfer{active: true, sector: sector, buf: buf, start: p.Now(), st: st}
	}
	p.Sleep(xfer)
	d.torn.active = false
	d.Stats.XferTime += xfer

	if write {
		d.writeImage(sector, buf)
		// Write-through: a write to the buffered track invalidates the
		// buffer (conservative; keeps "the track buffer helps only
		// reads" true, as the paper observes).
		if d.tbValid && d.tbTrack == track {
			d.tbValid = false
		}
		return
	}
	d.readImage(sector, buf)
	if d.P.TrackBuffer {
		// The drive keeps reading the rest of the track into its
		// buffer; sectors become available in rotational order from
		// the start of this transfer.
		d.tbValid = true
		d.tbTrack = track
		d.tbFillStart = xferStart
		d.tbFillSect = c.Sector
	}
}

// seekTime models arm movement with a square-root profile: SeekMin for a
// single-cylinder step (dominated by settle time) rising to SeekMax for
// a full stroke. Short sorted steps are much cheaper than random
// intra-file hops — the property disksort exploits.
func (d *Disk) seekTime(from, to int) Time {
	if from == to {
		return 0
	}
	dist := from - to
	if dist < 0 {
		dist = -dist
	}
	maxDist := d.P.Geom.Cylinders() - 1
	frac := math.Sqrt(float64(dist-1) / float64(maxDist-1))
	return d.P.SeekMin + Time(frac*float64(d.P.SeekMax-d.P.SeekMin))
}

// --- image (platter content) access -------------------------------------

// ReadImage copies platter bytes without consuming simulated time. It is
// the "offline" access path used by mkfs, fsck, and tests.
func (d *Disk) ReadImage(sector int64, buf []byte) { d.readImage(sector, buf) }

// WriteImage stores platter bytes without consuming simulated time.
func (d *Disk) WriteImage(sector int64, data []byte) { d.writeImage(sector, data) }

// Image is a point-in-time deep copy of a drive's platter contents in
// the sparse chunk representation. Snapshot one from a crashed machine
// and hand it to a fresh machine (ufsclust.WithRecovery) to model
// the reboot after a power cut. For the serialized on-host file format
// see DumpImage/LoadImage in image.go.
type Image struct {
	chunks map[int64][]byte
}

// Snapshot deep-copies the platter contents.
func (d *Disk) Snapshot() *Image {
	img := &Image{chunks: make(map[int64][]byte, len(d.image))}
	for k, c := range d.image { // simlint:ignore maporder -- deep copy into a map, order-insensitive
		img.chunks[k] = append([]byte(nil), c...)
	}
	return img
}

// Restore replaces the platter contents with a deep copy of img. Call
// it before mounting; restoring under a live file system is not
// supported.
func (d *Disk) Restore(img *Image) {
	d.image = make(map[int64][]byte, len(img.chunks))
	for k, c := range img.chunks { // simlint:ignore maporder -- deep copy into a map, order-insensitive
		d.image[k] = append([]byte(nil), c...)
	}
	d.tbValid = false
}

func (d *Disk) readImage(sector int64, buf []byte) {
	if len(buf)%SectorSize != 0 {
		panic("disk: image access not sector aligned") // simlint:invariant -- offline callers use block-multiple buffers
	}
	off := sector * SectorSize
	for len(buf) > 0 {
		chunk := off / (chunkSectors * SectorSize)
		coff := off % (chunkSectors * SectorSize)
		n := chunkSectors*SectorSize - coff
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if c, ok := d.image[chunk]; ok {
			copy(buf[:n], c[coff:coff+n])
		} else {
			for i := int64(0); i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		off += n
	}
}

func (d *Disk) writeImage(sector int64, data []byte) {
	if len(data)%SectorSize != 0 {
		panic("disk: image access not sector aligned") // simlint:invariant -- offline callers use block-multiple buffers
	}
	off := sector * SectorSize
	for len(data) > 0 {
		chunk := off / (chunkSectors * SectorSize)
		coff := off % (chunkSectors * SectorSize)
		n := chunkSectors*SectorSize - coff
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		c, ok := d.image[chunk]
		if !ok {
			c = make([]byte, chunkSectors*SectorSize)
			d.image[chunk] = c
		}
		copy(c[coff:coff+n], data[:n])
		data = data[n:]
		off += n
	}
}
