// Package driver implements the SunOS-style block device driver layer:
// a strategy routine feeding a disksort-ordered queue, one request active
// at the drive at a time, completion interrupts, an optional
// driver-level clustering mode (the paper's rejected alternative), the
// 56 KB DMA limit that bounds cluster sizes ("there are still drivers
// out there with 16 bit limitations"), and the B_ORDER barrier flag the
// paper proposes in Further Work.
package driver

import (
	"fmt"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// DefaultMaxPhys is the classic 56 KB transfer limit.
const DefaultMaxPhys = 56 * 1024

// Retry policy: a failed transfer is retried up to DefaultMaxRetries
// times, the first after RetryBackoff and each subsequent one after
// double the previous delay (classic exponential backoff).
const (
	DefaultMaxRetries = 3
	RetryBackoff      = 5 * sim.Millisecond
)

// DevError is the typed error delivered through Buf.Err when the
// driver exhausts its retries for a transfer. It wraps the drive-level
// cause, so errors.Is(err, disk.ErrMedia) matches.
type DevError struct {
	Write    bool
	Sector   int64
	Attempts int // total attempts, including the first
	Err      error
}

func (e *DevError) Error() string {
	dir := "read"
	if e.Write {
		dir = "write"
	}
	return fmt.Sprintf("driver: %s at sector %d failed after %d attempts: %v", dir, e.Sector, e.Attempts, e.Err)
}

func (e *DevError) Unwrap() error { return e.Err }

// Buf is a block I/O request, after the BSD buf struct. Blkno counts
// 512-byte sectors on the underlying device.
type Buf struct {
	Blkno int64
	Data  []byte // length is the transfer size in bytes (sector multiple)
	Write bool
	// Order marks a barrier request: neither it nor requests queued
	// after it may be sorted ahead of requests queued before it.
	Order bool
	// Vec marks a transfer issued directly by the list-I/O vectored read
	// path (core's Readv). Sieving envelopes and vectored writes flow
	// through the shared demand-read and delayed-write machinery and are
	// not tagged, so driver.vec_queued counts list-read transfers only.
	Vec bool
	// Iodone is called in interrupt (scheduler) context at completion.
	Iodone func(*Buf)
	// Err is set before Iodone runs when the transfer failed for good
	// (a *DevError wrapping the drive's error). A coalesced cluster's
	// error is copied to every child.
	Err error

	queuedAt sim.Time
	parent   *clusterBuf
	attempts int // failed attempts so far
}

// Sectors returns the transfer length in sectors.
func (b *Buf) Sectors() int { return len(b.Data) / disk.SectorSize }

// End returns the sector just past the transfer.
func (b *Buf) End() int64 { return b.Blkno + int64(b.Sectors()) }

// clusterBuf is a driver-coalesced run of adjacent Bufs.
type clusterBuf struct {
	children []*Buf
}

// Stats counts driver-level activity.
type Stats struct {
	Queued      int64 // bufs accepted by Strategy
	Issued      int64 // requests sent to the drive (after coalescing)
	Coalesced   int64 // bufs absorbed into an existing queued request
	MaxQueue    int   // high-water queue depth
	QueueWait   sim.Time
	SortSkipped int64 // inserts pinned behind a B_ORDER barrier
	Retries     int64 // failed transfers rescheduled
	Giveups     int64 // transfers abandoned after exhausting retries
	VecQueued   int64 // bufs tagged by the vectored list-I/O read path
}

// Config selects driver behaviour.
type Config struct {
	MaxPhys int // maximum single transfer in bytes; 0 means DefaultMaxPhys
	// Sort enables disksort elevator ordering (some drivers rely on
	// intelligent controllers instead; the paper notes "not all drivers
	// call disksort").
	Sort bool
	// Coalesce enables driver-level clustering of adjacent queued
	// requests — the "driver clustering" alternative the paper rejects
	// because it only helps writes and still traverses the file system
	// per block.
	Coalesce bool
	// MaxRetries is how many times a failed transfer is reissued before
	// the driver gives up and delivers a *DevError. 0 means
	// DefaultMaxRetries; negative disables retries entirely.
	MaxRetries int
}

// DefaultConfig returns a sorting, non-coalescing driver.
func DefaultConfig() Config {
	return Config{
		MaxPhys:    DefaultMaxPhys,
		Sort:       true,
		MaxRetries: DefaultMaxRetries,
	}
}

// Driver glues the file system to one block device — a bare drive or a
// volume. It keeps up to Disk.Channels() requests in flight at once, so
// a multi-spindle volume overlaps member seeks; a single drive reports
// one channel and gets the classic one-request-at-the-device behaviour.
type Driver struct {
	Cfg  Config
	Disk disk.Device
	CPU  *cpu.Model // may be nil
	Sim  *sim.Sim

	queue    []*Buf // pending, in issue order (disksort-maintained)
	inflight int    // requests issued and not yet completed
	barrier  bool   // a B_ORDER request is in flight; issue nothing past it
	headAt   int64  // last issued block, the elevator position

	Stats Stats

	// Telemetry; all nil (and nil-safe) until AttachTelemetry.
	bus           *telemetry.Bus
	depthH, xferH *telemetry.Histogram
}

// AttachTelemetry registers the driver's counters, the queue-depth
// histogram (sampled on every enqueue and dequeue), and the per-issue
// transfer-size histogram — the cluster-size distribution the paper's
// throughput argument rests on.
func (dr *Driver) AttachTelemetry(tel *telemetry.Telemetry) {
	dr.bus = tel.Bus
	r := tel.Reg
	r.Counter("driver.queued", func() int64 { return dr.Stats.Queued })
	r.Counter("driver.issued", func() int64 { return dr.Stats.Issued })
	r.Counter("driver.coalesced", func() int64 { return dr.Stats.Coalesced })
	r.Counter("driver.sort_skipped", func() int64 { return dr.Stats.SortSkipped })
	r.Counter("driver.retries", func() int64 { return dr.Stats.Retries })
	r.Counter("driver.giveups", func() int64 { return dr.Stats.Giveups })
	r.Counter("driver.vec_queued", func() int64 { return dr.Stats.VecQueued })
	r.Counter("driver.queue_wait_ns", func() int64 { return int64(dr.Stats.QueueWait) })
	r.Gauge("driver.max_queue", func() int64 { return int64(dr.Stats.MaxQueue) })
	r.Gauge("driver.queue_len", func() int64 { return int64(len(dr.queue)) })
	dr.depthH = r.Hist(telemetry.NewHistogram("driver.qdepth", telemetry.UnitCount, telemetry.DepthBounds()))
	dr.xferH = r.Hist(telemetry.NewHistogram("driver.xfer_sectors", telemetry.UnitCount, telemetry.SizeBounds()))
}

// New returns a driver for d. cpuModel may be nil for untimed tests.
func New(s *sim.Sim, d disk.Device, cpuModel *cpu.Model, cfg Config) *Driver {
	if cfg.MaxPhys == 0 {
		cfg.MaxPhys = DefaultMaxPhys
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.MaxPhys%disk.SectorSize != 0 {
		panic("driver: MaxPhys not sector aligned") // simlint:invariant -- harness configuration assertion at construction
	}
	return &Driver{Cfg: cfg, Disk: d, CPU: cpuModel, Sim: s}
}

// MaxPhys returns the largest transfer the driver accepts, in bytes.
// File system clustering sizes its clusters to fit.
func (dr *Driver) MaxPhys() int { return dr.Cfg.MaxPhys }

// Strategy accepts a request, queues it, and starts the drive if idle.
// It does not block: completion is delivered through b.Iodone. The
// caller must be a simulation process (CPU is charged to it) or, with a
// nil proc, scheduler context (no CPU charge).
func (dr *Driver) Strategy(p *sim.Proc, b *Buf) {
	if len(b.Data) == 0 || len(b.Data)%disk.SectorSize != 0 {
		panic("driver: transfer not a positive sector multiple") // simlint:invariant -- callers construct block-aligned transfers
	}
	if len(b.Data) > dr.Cfg.MaxPhys {
		panic(fmt.Sprintf("driver: transfer %d exceeds maxphys %d", len(b.Data), dr.Cfg.MaxPhys)) // simlint:invariant -- core caps clusters at maxphys/bsize
	}
	if b.Blkno < 0 || b.End() > dr.Disk.Geom().TotalSectors() {
		panic("driver: transfer outside device") // simlint:invariant -- fs allocator never hands out blocks past the device
	}
	if dr.CPU != nil && p != nil {
		dr.CPU.Use(p, cpu.Driver, cpu.StrategyInstr)
	}
	b.queuedAt = dr.Sim.Now()
	dr.Stats.Queued++
	if b.Vec {
		dr.Stats.VecQueued++
	}

	if dr.Cfg.Coalesce && dr.tryCoalesce(b) {
		dr.Stats.Coalesced++
	} else {
		dr.insert(b)
	}
	if n := len(dr.queue); n > dr.Stats.MaxQueue {
		dr.Stats.MaxQueue = n
	}
	dr.depthH.Observe(int64(len(dr.queue)))
	dr.bus.Emit(telemetry.Event{
		T:      dr.Sim.Now(),
		Kind:   telemetry.EvIOQueue,
		Sector: b.Blkno,
		Bytes:  int64(len(b.Data)),
		Depth:  int64(len(dr.queue)),
		Write:  b.Write,
	})
	dr.start()
}

// insert places b in the queue using the disksort discipline: two
// ascending runs, the first at or beyond the current head position, the
// second behind it (the wrap). B_ORDER barriers pin the tail.
func (dr *Driver) insert(b *Buf) {
	if !dr.Cfg.Sort || b.Order {
		dr.queue = append(dr.queue, b)
		return
	}
	// Find the first slot we may sort into: after the last barrier.
	lo := 0
	for i := len(dr.queue) - 1; i >= 0; i-- {
		if dr.queue[i].Order {
			lo = i + 1
			break
		}
	}
	if lo > 0 {
		dr.Stats.SortSkipped++
	}
	pos := len(dr.queue)
	for i := lo; i < len(dr.queue); i++ {
		if dr.before(b, dr.queue[i]) {
			pos = i
			break
		}
	}
	dr.queue = append(dr.queue, nil)
	copy(dr.queue[pos+1:], dr.queue[pos:])
	dr.queue[pos] = b
}

// before reports whether a should be serviced ahead of b under a one-way
// elevator sweeping upward from the current head position.
func (dr *Driver) before(a, b *Buf) bool {
	h := dr.headAt
	aFwd, bFwd := a.Blkno >= h, b.Blkno >= h
	if aFwd != bFwd {
		return aFwd
	}
	return a.Blkno < b.Blkno
}

// tryCoalesce merges b into an adjacent queued request of the same
// direction if the combined transfer fits MaxPhys.
func (dr *Driver) tryCoalesce(b *Buf) bool {
	for i, q := range dr.queue {
		if q.Write != b.Write || q.Order || b.Order {
			continue
		}
		var merged *Buf
		switch {
		case q.End() == b.Blkno: // b extends q upward
			merged = dr.merge(q, b)
		case b.End() == q.Blkno: // b extends q downward
			merged = dr.merge(b, q)
		default:
			continue
		}
		if merged == nil {
			continue
		}
		dr.queue[i] = merged
		return true
	}
	return false
}

// merge combines lo followed by hi into one cluster buf, or returns nil
// if the result would exceed MaxPhys.
func (dr *Driver) merge(lo, hi *Buf) *Buf {
	total := len(lo.Data) + len(hi.Data)
	if total > dr.Cfg.MaxPhys {
		return nil
	}
	var children []*Buf
	for _, b := range []*Buf{lo, hi} {
		if b.parent != nil {
			children = append(children, b.parent.children...)
		} else {
			children = append(children, b)
		}
	}
	cl := &clusterBuf{children: children}
	m := &Buf{
		Blkno:    lo.Blkno,
		Data:     make([]byte, total),
		Write:    lo.Write,
		queuedAt: lo.queuedAt,
		parent:   cl,
	}
	if m.Write {
		// Gather child data now; it is already final.
		off := 0
		for _, c := range children {
			copy(m.Data[off:], c.Data)
			off += len(c.Data)
		}
	}
	return m
}

// start issues queued requests while the device has a free channel. A
// single drive has one channel, so at most one request is outstanding
// (the classic strategy/interrupt cycle); a volume has one per member,
// letting the elevator keep every spindle seeking at once. A B_ORDER
// barrier is never issued alongside other requests: it waits for the
// device to drain, and nothing is issued past it while it runs.
func (dr *Driver) start() {
	for !dr.barrier && len(dr.queue) > 0 && dr.inflight < dr.Disk.Channels() {
		b := dr.queue[0]
		if b.Order && dr.inflight > 0 {
			return // barrier: drain the device first
		}
		copy(dr.queue, dr.queue[1:])
		dr.queue = dr.queue[:len(dr.queue)-1]
		dr.inflight++
		dr.headAt = b.Blkno
		dr.Stats.Issued++
		dr.Stats.QueueWait += dr.Sim.Now() - b.queuedAt
		dr.depthH.Observe(int64(len(dr.queue)))
		dr.xferH.Observe(int64(b.Sectors()))
		req := &disk.Request{
			Sector: b.Blkno,
			Count:  b.Sectors(),
			Write:  b.Write,
			Data:   b.Data,
		}
		req.Done = func() { dr.complete(b, req.Err) }
		if b.Order {
			dr.barrier = true // nothing passes until it completes
		}
		dr.Disk.Submit(req)
	}
}

// complete runs in scheduler context: charge the interrupt, retry or
// give up on a failed transfer, scatter coalesced reads, deliver
// iodone callbacks, and start the next request.
func (dr *Driver) complete(b *Buf, devErr error) {
	if dr.CPU != nil {
		dr.CPU.ChargeInterrupt(cpu.Interrupt, cpu.InterruptInstr)
	}
	dr.inflight--
	if b.Order {
		dr.barrier = false
	}
	if devErr != nil && b.attempts < dr.Cfg.MaxRetries {
		// Transient-error path: back off (doubling per attempt), then
		// reissue at the head of the queue. The drive is released in
		// the meantime, so queued requests are not starved by the
		// backoff delay.
		b.attempts++
		dr.Stats.Retries++
		delay := RetryBackoff << (b.attempts - 1)
		dr.bus.Emit(telemetry.Event{
			T:      dr.Sim.Now(),
			Kind:   telemetry.EvIORetry,
			Sector: b.Blkno,
			Bytes:  int64(len(b.Data)),
			Depth:  int64(len(dr.queue)),
			Dur:    delay,
			Write:  b.Write,
		})
		dr.Sim.After(delay, func() { dr.requeue(b) })
		dr.start()
		return
	}
	if devErr != nil {
		dr.Stats.Giveups++
		b.Err = &DevError{Write: b.Write, Sector: b.Blkno, Attempts: b.attempts + 1, Err: devErr}
		dr.bus.Emit(telemetry.Event{
			T:      dr.Sim.Now(),
			Kind:   telemetry.EvIOGiveup,
			Sector: b.Blkno,
			Bytes:  int64(len(b.Data)),
			Depth:  int64(len(dr.queue)),
			Dur:    dr.Sim.Now() - b.queuedAt,
			Write:  b.Write,
		})
	}
	dr.bus.Emit(telemetry.Event{
		T:      dr.Sim.Now(),
		Kind:   telemetry.EvIODone,
		Sector: b.Blkno,
		Bytes:  int64(len(b.Data)),
		Depth:  int64(len(dr.queue)),
		Dur:    dr.Sim.Now() - b.queuedAt,
		Write:  b.Write,
	})
	if b.parent != nil {
		off := 0
		for _, c := range b.parent.children {
			c.Err = b.Err
			if !b.Write && b.Err == nil {
				copy(c.Data, b.Data[off:off+len(c.Data)])
			}
			off += len(c.Data)
			if c.Iodone != nil {
				c.Iodone(c)
			}
		}
	} else if b.Iodone != nil {
		b.Iodone(b)
	}
	dr.start()
}

// requeue reinserts a transfer at the head of the queue after its
// retry backoff: it was already the elevator's chosen request, so it
// keeps its turn (and its original queuedAt, making the final io_done
// latency cover all attempts).
func (dr *Driver) requeue(b *Buf) {
	dr.queue = append(dr.queue, nil)
	copy(dr.queue[1:], dr.queue)
	dr.queue[0] = b
	dr.start()
}

// IO is a synchronous convenience: Strategy plus wait for completion.
func (dr *Driver) IO(p *sim.Proc, b *Buf) {
	done := false
	var q sim.WaitQ
	prev := b.Iodone
	b.Iodone = func(bb *Buf) {
		done = true
		q.WakeAll()
		if prev != nil {
			prev(bb)
		}
	}
	dr.Strategy(p, b)
	for !done {
		p.Block(&q)
	}
}
