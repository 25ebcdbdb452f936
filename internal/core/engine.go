// Package core implements the paper's contribution: the UFS data path
// (rdwr / getpage / putpage) in two selectable forms — the legacy SunOS
// 4.1 block-at-a-time engine with one-block read-ahead, and the SunOS
// 4.1.1 clustering engine that transfers maxcontig-sized clusters,
// delays writes until a cluster accumulates (or sequentiality breaks),
// frees pages behind large sequential reads, and bounds per-file write
// queueing with a counting semaphore. The two engines run over the same
// on-disk format; only this code path differs, exactly as in the paper.
// Every instruction the path charges comes from internal/cpu's cost
// table.
package core

import (
	"fmt"

	"ufsclust/internal/cpu"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vec"
	"ufsclust/internal/vm"
)

// Config selects which engine behaviours are active, mirroring the
// paper's Figure 9 run matrix. The on-disk tuning (rotdelay, maxcontig)
// lives in the superblock; these switches are the code-path half.
type Config struct {
	// Clustered selects the new getpage/putpage implementation. With
	// maxcontig=1 in the superblock it degrades gracefully to one-block
	// clusters (the paper's run B).
	Clustered bool
	// Prefetch is the read-ahead switch and, for the clustered engine,
	// the policy: how many clusters to issue at each trigger.
	// prefetch.NewFixed is the paper's one-cluster nextrio behaviour;
	// prefetch.NewAdaptive gives the confidence-driven ramping window.
	// The legacy block-at-a-time engine keeps its hardwired one-block
	// read-ahead whatever the policy. nil turns read-ahead off in both
	// (ablations isolate its effect that way).
	Prefetch prefetch.Policy
	// Vec selects the vectored-I/O strategy Readv/Writev dispatch
	// through: data sieving vs. true list I/O (see internal/vec). nil
	// selects the density-threshold vec.Auto policy. Single-element
	// vectors bypass the strategy entirely and take the scalar paths.
	Vec vec.Strategy
	// FreeBehind releases pages behind large sequential reads when
	// memory is low, turning LRU into MRU for streaming I/O.
	FreeBehind bool
	// WriteLimit is the per-file cap on bytes of write I/O in the disk
	// queue (the paper's fairness semaphore); 0 disables the limit.
	WriteLimit int64

	// RandomClustering enables the Further Work idea of passing the
	// request size down to getpage "as a hint to turn on clustering
	// for what is apparently random access".
	RandomClustering bool
}

// ConfigA and ConfigD return the code-path halves of the paper's Figure
// 9 runs A and D, without the write limit. (The matching mkfs tunings
// are: A rotdelay 0 maxcontig 15; D rotdelay 4ms maxcontig 1. Runs B
// and C are D plus heuristics the root package's RunB/RunC turn on.)
func ConfigA() Config {
	return Config{Clustered: true, Prefetch: prefetch.NewFixed(), FreeBehind: true}
}

// ConfigD approximates stock SunOS 4.1.
func ConfigD() Config {
	return Config{Clustered: false, Prefetch: prefetch.NewFixed(), FreeBehind: false}
}

// Stats counts engine events.
type Stats struct {
	GetPages     int64 // getpage calls (faults reaching the file system)
	PutPages     int64 // putpage calls
	CacheHits    int64 // getpage satisfied without I/O
	SyncReads    int64 // demand reads issued
	AsyncReads   int64 // read-ahead reads issued
	ReadBlocks   int64 // blocks moved by reads
	WriteIOs     int64 // write requests issued
	WriteBlocks  int64 // blocks moved by writes
	Lies         int64 // delayed ("lied about") putpages
	Pushes       int64 // delayed-window flushes
	FreeBehinds  int64
	ZeroFills    int64 // hole reads
	WriteStalls  int64 // writes blocked on the per-file limit
	DaemonPushes int64 // pageouts initiated by the VM daemon
	HintClusters int64 // random reads clustered via the size hint
	RAHits       int64 // demand accesses satisfied by a read-ahead page
	RATriggers   int64 // read-ahead trigger points reached
	RACollapses  int64 // policy collapses on a random seek
	RAClampMem   int64 // windows reduced by the free-memory clamp
	RAClampSem   int64 // windows reduced by the write-limit clamp
	VecCalls     int64 // multi-element Readv/Writev calls dispatched
	VecRuns      int64 // merged runs across all vectored calls
	VecCoalesced int64 // vector elements absorbed into a shared run
	SieveWaste   int64 // sieving overhead bytes (gap transfer + RMW read-back)
}

// freeBehindMin is the file offset after which free-behind may engage
// ("at a large enough offset").
const freeBehindMin = 128 << 10

// Engine binds the data path to a mounted file system and VM system.
type Engine struct {
	Sim *sim.Sim
	CPU *cpu.Model // may be nil (untimed tests)
	VM  *vm.VM
	FS  *ufs.Fs
	Cfg Config

	vnodes map[int32]*Vnode
	Stats  Stats

	// Bus receives the engine's structured events (EvSyncRead,
	// EvReadAhead, EvWriteLie, EvClusterPush, EvFreeBehind); nil (and
	// nil-safe) until AttachTelemetry. The figure tracer
	// (internal/trace) subscribes to it to render the paper's
	// access-pattern tables from live execution.
	Bus *telemetry.Bus

	// raWindow distributes the blocks issued per read-ahead trigger
	// (0 = an armed-but-empty window); nil (and nil-safe) until
	// AttachTelemetry.
	raWindow *telemetry.Histogram
}

// AttachTelemetry registers the engine's counters and connects it to
// the event bus.
func (e *Engine) AttachTelemetry(tel *telemetry.Telemetry) {
	e.Bus = tel.Bus
	r := tel.Reg
	r.Counter("core.getpages", func() int64 { return e.Stats.GetPages })
	r.Counter("core.putpages", func() int64 { return e.Stats.PutPages })
	r.Counter("core.cache_hits", func() int64 { return e.Stats.CacheHits })
	r.Counter("core.sync_reads", func() int64 { return e.Stats.SyncReads })
	r.Counter("core.async_reads", func() int64 { return e.Stats.AsyncReads })
	r.Counter("core.read_blocks", func() int64 { return e.Stats.ReadBlocks })
	r.Counter("core.write_ios", func() int64 { return e.Stats.WriteIOs })
	r.Counter("core.write_blocks", func() int64 { return e.Stats.WriteBlocks })
	r.Counter("core.lies", func() int64 { return e.Stats.Lies })
	r.Counter("core.pushes", func() int64 { return e.Stats.Pushes })
	r.Counter("core.free_behinds", func() int64 { return e.Stats.FreeBehinds })
	r.Counter("core.zero_fills", func() int64 { return e.Stats.ZeroFills })
	r.Counter("core.write_stalls", func() int64 { return e.Stats.WriteStalls })
	r.Counter("core.daemon_pushes", func() int64 { return e.Stats.DaemonPushes })
	r.Counter("core.hint_clusters", func() int64 { return e.Stats.HintClusters })
	r.Counter("core.ra_hits", func() int64 { return e.Stats.RAHits })
	r.Counter("core.ra_triggers", func() int64 { return e.Stats.RATriggers })
	r.Counter("core.ra_collapses", func() int64 { return e.Stats.RACollapses })
	r.Counter("core.ra_clamp_mem", func() int64 { return e.Stats.RAClampMem })
	r.Counter("core.ra_clamp_sem", func() int64 { return e.Stats.RAClampSem })
	r.Counter("core.vec_calls", func() int64 { return e.Stats.VecCalls })
	r.Counter("core.vec_runs", func() int64 { return e.Stats.VecRuns })
	r.Counter("core.vec_coalesced", func() int64 { return e.Stats.VecCoalesced })
	r.Counter("core.sieve_waste", func() int64 { return e.Stats.SieveWaste })
	e.raWindow = r.Hist(telemetry.NewHistogram("core.ra_window", telemetry.UnitCount, telemetry.DepthBounds()))
}

// NewEngine wires up an engine. The cluster size is the superblock's
// maxcontig capped by the driver's maxphys.
func NewEngine(s *sim.Sim, cpuModel *cpu.Model, vmSys *vm.VM, fs *ufs.Fs, cfg Config) *Engine {
	return &Engine{Sim: s, CPU: cpuModel, VM: vmSys, FS: fs, Cfg: cfg, vnodes: make(map[int32]*Vnode)}
}

// autoVec is the default vectored-I/O strategy, shared safely across
// engines because it is stateless.
var autoVec = vec.Auto()

// vecStrategy returns the configured vectored-I/O strategy, defaulting
// to the density-threshold auto policy.
func (e *Engine) vecStrategy() vec.Strategy {
	if e.Cfg.Vec != nil {
		return e.Cfg.Vec
	}
	return autoVec
}

func (e *Engine) charge(p *sim.Proc, c cpu.Category, instr int64) {
	if e.CPU != nil && p != nil && instr > 0 {
		e.CPU.Use(p, c, instr)
		e.VM.Slept()
	}
}

var _ vm.Object = (*Vnode)(nil)

// Vnode is the per-file object: the ufs inode plus every piece of
// engine state the paper's algorithms keep per file, the way 4.4BSD
// keeps its clustering cursors in the vnode. It implements vm.Object so
// the pageout daemon can write its dirty pages.
type Vnode struct {
	eng *Engine
	IP  *ufs.Inode

	// nextr is the predicted logical block of the next read; read-ahead
	// triggers when a fault matches it (figure 3).
	nextr int64
	// nextrio is the logical block where the next cluster read-ahead
	// should begin (figure 6).
	nextrio int64
	// delayoff/delaylen describe the run of delayed ("lied about")
	// write pages not yet pushed (figures 7 and 8). Byte units.
	delayoff, delaylen int64
	// ra is the read-ahead policy's detector for this file.
	ra prefetch.State

	// wsem implements the per-file write limit: bytes of I/O this file
	// may have in the disk queue. Nil when Config.WriteLimit is 0.
	wsem *sim.Semaphore

	// pending counts bytes of write I/O in flight for this file.
	pending     int64
	pendingWait sim.WaitQ

	// seq tracks whether the current read pattern looks sequential.
	seq bool

	// ioErr is the vnode's sticky I/O error: the first device error seen
	// by any of this file's transfers (including asynchronous ones whose
	// initiating call already returned). Once set, Read, Write and Fsync
	// fail with it — the classic "EIO until the file is closed" contract.
	ioErr error
}

// recordErr latches the vnode's first I/O error.
func (vn *Vnode) recordErr(err error) {
	if vn.ioErr == nil && err != nil {
		vn.ioErr = err
	}
}

// Err returns the vnode's sticky I/O error, if any.
func (vn *Vnode) Err() error { return vn.ioErr }

// vnode returns (creating if needed) the vnode for an inode.
func (e *Engine) vnode(ip *ufs.Inode) *Vnode {
	if vn, ok := e.vnodes[ip.Ino]; ok {
		return vn
	}
	vn := &Vnode{eng: e, IP: ip}
	vn.pendingWait.Name = fmt.Sprintf("vnode.%d.pending", ip.Ino)
	if e.Cfg.WriteLimit > 0 {
		vn.wsem = sim.NewSemaphore(fmt.Sprintf("wlimit.%d", ip.Ino), e.Cfg.WriteLimit)
	}
	e.vnodes[ip.Ino] = vn
	return vn
}

// File is an open file handle.
type File struct {
	eng *Engine
	vn  *Vnode
}

// Open resolves path and returns a handle.
func (e *Engine) Open(p *sim.Proc, path string) (*File, error) {
	ip, err := e.FS.Namei(p, path)
	if err != nil {
		return nil, err
	}
	return &File{eng: e, vn: e.vnode(ip)}, nil
}

// Create makes a new file and returns a handle.
func (e *Engine) Create(p *sim.Proc, path string) (*File, error) {
	ip, err := e.FS.Create(p, path)
	if err != nil {
		return nil, err
	}
	return &File{eng: e, vn: e.vnode(ip)}, nil
}

// Remove unlinks path, first flushing and discarding any engine state
// (delayed writes, cached pages) so a later file reusing the inode
// number starts clean.
func (e *Engine) Remove(p *sim.Proc, path string) error {
	ip, err := e.FS.Namei(p, path)
	if err != nil {
		return err
	}
	if vn, ok := e.vnodes[ip.Ino]; ok {
		f := &File{eng: e, vn: vn}
		f.Purge(p)
		delete(e.vnodes, ip.Ino)
	}
	e.FS.Iput(p, ip)
	return e.FS.Remove(p, path)
}

// Size returns the current file length.
func (f *File) Size() int64 { return f.vn.IP.D.Size }

// Inode exposes the underlying inode (benchmarks inspect layout).
func (f *File) Inode() *ufs.Inode { return f.vn.IP }

// Cursors returns the file's read predictors: nextr, the block the next
// read is expected at, and nextrio, where the next cluster read-ahead
// begins (the figure tracer prints them).
func (f *File) Cursors() (nextr, nextrio int64) { return f.vn.nextr, f.vn.nextrio }

// Fsync pushes any delayed writes, waits for all of this file's write
// I/O to reach the platter, and then writes the file's metadata (the
// indirect blocks and the inode itself) synchronously. Only when Fsync
// returns nil is the file's data durable: a power cut after that point
// loses nothing that was written before the call.
func (f *File) Fsync(p *sim.Proc) error {
	vn := f.vn
	if vn.delaylen > 0 {
		f.eng.push(p, vn, vn.delayoff, vn.delaylen, true, 0)
		vn.delayoff, vn.delaylen = 0, 0
	}
	for vn.pending > 0 {
		p.Block(&vn.pendingWait)
	}
	if err := f.eng.FS.SyncInode(p, vn.IP); err != nil {
		vn.recordErr(err)
	}
	if err := vn.Err(); err != nil {
		return err
	}
	// A metadata write that failed with no caller to report to (an
	// eviction, a delayed bitmap write) is sticky on the file system.
	return f.eng.FS.IOErr()
}

// Purge flushes delayed writes and evicts every cached page of the
// file: the "cold cache" primitive benchmarks use between a file's
// creation and its measured read. It also resets the read predictors.
func (f *File) Purge(p *sim.Proc) error {
	err := f.Fsync(p)
	f.eng.VM.Evict(p, f.vn, 0)
	f.vn.nextr, f.vn.nextrio = 0, 0
	f.vn.ra = prefetch.State{}
	f.vn.seq = false
	return err
}

// Truncate resizes the file, invalidating cached pages past the end. A
// new end inside a block first zeroes the rest of that block, as FFS's
// ffs_truncate does, so a later extension reads zeros there and not the
// bytes the truncate cut off. A hole reads as zeros already (and a
// dirty page needs backing), so it is left alone.
func (f *File) Truncate(p *sim.Proc, size int64) error {
	e, vn := f.eng, f.vn
	if boff := e.FS.SB.Blkoff(size); boff != 0 && size < vn.IP.D.Size {
		blockStart := size - int64(boff)
		fsbn, _, err := e.FS.Bmap(p, vn.IP, e.FS.SB.Lblkno(size))
		if err == nil && fsbn != 0 {
			var pg *vm.Page
			if pg, err = e.GetPage(p, vn, blockStart); err == nil {
				clear(pg.Data[boff:])
				pg.SetDirty()
				pg.Unbusy()
				e.PutPage(p, vn, blockStart)
			}
		}
		if err != nil {
			return err
		}
	}
	if err := f.Fsync(p); err != nil {
		return err
	}
	f.eng.VM.Evict(p, f.vn, size)
	return f.eng.FS.Truncate(p, f.vn.IP, size)
}

// writeStarted accounts n bytes of write I/O entering the queue. With
// limit it stalls on the per-file limit if one is set; the pageout
// daemon passes false so it can always make progress.
func (vn *Vnode) writeStarted(p *sim.Proc, n int64, limit bool) {
	if limit && vn.wsem != nil {
		if vn.wsem.Value() < n {
			vn.eng.Stats.WriteStalls++
		}
		vn.wsem.P(p, n)
	}
	vn.pending += n
}

// writeDone releases writeStarted's accounting from interrupt context.
func (vn *Vnode) writeDone(n int64, limit bool) {
	if limit && vn.wsem != nil {
		vn.wsem.V(n)
	}
	vn.pending -= n
	if vn.pending == 0 {
		vn.pendingWait.WakeAll()
	}
}
