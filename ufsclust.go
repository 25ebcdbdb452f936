// Package ufsclust reproduces McVoy & Kleiman, "Extent-like Performance
// from a UNIX File System" (USENIX Winter 1991): file system I/O
// clustering in UFS, evaluated on a simulated SunOS machine.
//
// The package assembles a complete simulated machine — a 12-MIPS CPU
// with an instruction-cost model, an 8 MB unified page cache with a
// two-handed-clock pageout daemon, a disksort block driver, and a
// rotational 400 MB SCSI disk with a track buffer — runs a byte-accurate
// FFS/UFS on it, and exposes the paper's two data-path engines (legacy
// block-at-a-time vs. clustered) plus its benchmark configurations A-D.
//
// Quick start:
//
//	m, _ := ufsclust.New(ufsclust.RunA())
//	pre := m.Snapshot()
//	m.Run(func(p *sim.Proc) {
//		f, _ := m.Engine.Create(p, "/data")
//		f.Write(p, 0, make([]byte, 1<<20))
//		f.Fsync(p)
//	})
//	delta := m.Snapshot().Delta(pre)
//	fmt.Println(delta.Get("disk.sectors_written"), m.Sim.Now())
package ufsclust

import (
	"fmt"
	"io"

	"ufsclust/internal/core"
	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/ufs"
	"ufsclust/internal/vec"
	"ufsclust/internal/vm"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// File is an open file handle on the simulated file system.
type File = core.File

// Ext is one element of a Readv/Writev I/O vector: Len bytes at file
// offset Off (see internal/vec). Build vectors as []ufsclust.Ext and
// pass them straight to File.Readv / File.Writev:
//
//	v := []ufsclust.Ext{{Off: 0, Len: 8192}, {Off: 65536, Len: 8192}}
//	buf := make([]byte, 16384)
//	n, err := f.Readv(p, v, buf)
//
// The strategy behind the call — data sieving vs. true list I/O — is
// selected per machine with WithVecStrategy.
type Ext = vec.Ext

// Options configures a simulated machine. Zero values select the
// paper's hardware: 8 MB memory and the 400 MB drive; the CPU is always
// the paper's 12-MIPS processor (cpu.MIPS).
type Options struct {
	Seed     int64
	MemBytes int64

	Disk   *disk.Params   // nil = disk.DefaultParams()
	Driver *driver.Config // nil = driver.DefaultConfig()
	Mkfs   ufs.MkfsOpts
	Mount  ufs.MountOpts
	Engine core.Config

	// EventJSONL, when non-nil, receives every telemetry event as one
	// JSON line (see internal/telemetry's JSONLWriter). Same-seed runs
	// produce byte-identical streams.
	EventJSONL io.Writer

	// Fault is the machine's fault plan (media errors, power cuts);
	// the zero value injects nothing. See internal/fault.
	Fault fault.Plan

	// Images, when non-empty, are platter snapshots restored instead of
	// running mkfs; the machine mounts the existing file system. There
	// must be exactly one per member drive, in member order: one
	// disk.Disk.Snapshot for the bare sd0, vol.Volume.Snapshot for a
	// volume. Recover additionally recovers the restored image before
	// mounting — the crash-recovery path — and needs images to recover.
	Images  []*disk.Image
	Recover bool

	// Volume, when non-nil, composes the machine's storage from several
	// member drives (concat, RAID-0/1/5 — see internal/vol) instead of
	// the single sd0. Options.Disk becomes the member template when
	// Volume.Member is nil.
	Volume *vol.Config

	// Journal, when non-nil, reserves an on-disk log region at mkfs
	// time and mounts the file system with the write-ahead metadata
	// journal attached (see internal/wal). Machines restored from a
	// journaled image attach the journal regardless — the mount follows
	// the format, so a recovery boot never silently drops journaling.
	Journal *wal.Config
}

// Machine is a fully assembled simulated system.
type Machine struct {
	Sim *sim.Sim
	CPU *cpu.Model

	// Dev is the block device under the driver: the bare Disk, or the
	// Vol composing several. Always non-nil.
	Dev disk.Device
	// Disk is the bare drive on a single-disk machine; nil when the
	// machine was built with a volume (use Vol, or Dev for the common
	// block-device surface).
	Disk *disk.Disk
	// Vol is the composed volume on a volume machine; nil otherwise.
	Vol *vol.Volume

	Driver *driver.Driver
	VM     *vm.VM
	FS     *ufs.Fs
	Engine *core.Engine

	// Tel is the machine's telemetry: every subsystem's counters and
	// histograms registered in Tel.Reg, every subsystem's events
	// emitted on Tel.Bus. Read it through Snapshot; subscribe to
	// Tel.Bus for the structured event stream.
	Tel *telemetry.Telemetry

	// Fault executes the machine's fault plan. Always present (an
	// empty plan injects nothing), so fault.* metrics exist on every
	// machine. After a power cut, Fault.Crashed() reports true and
	// the disk image is frozen as of the cut.
	Fault *fault.Injector

	// RepairLog is the crash-recovery report when the machine was
	// built with Recover (WithRecovery) and recovered by full-image
	// repair; nil otherwise. Journaled machines recover by log replay
	// instead — see ReplayLog.
	RepairLog *ufs.RepairReport

	// WAL is the write-ahead metadata journal on a journaled machine
	// (WithJournal, or a restored image whose superblock carries a log
	// region); nil otherwise.
	WAL *wal.Log

	// ReplayLog is the log-replay report when a journaled machine was
	// built with Recover (WithRecovery): recovery replayed the
	// journal instead of running ufs.Repair. Nil otherwise.
	ReplayLog *wal.RecoverReport
}

// checkMem refuses a memory size too small to build a page cache from;
// 0 selects the paper's 8 MB.
func checkMem(bytes int64) error {
	if bytes != 0 && bytes < 8*vm.PageSize {
		return fmt.Errorf("memory: %d bytes is less than 8 pages", bytes)
	}
	return nil
}

// NewMachine builds a machine, formats its disk, and mounts it.
func NewMachine(o Options) (*Machine, error) {
	if err := checkMem(o.MemBytes); err != nil {
		return nil, err
	}
	if o.Driver != nil && (o.Driver.MaxPhys < 0 || o.Driver.MaxPhys%disk.SectorSize != 0) {
		return nil, fmt.Errorf("driver: MaxPhys %d is not a sector multiple", o.Driver.MaxPhys)
	}
	if o.MemBytes == 0 {
		o.MemBytes = 8 << 20
	}
	s := sim.New(o.Seed)
	cm := cpu.New(s, cpu.MIPS)
	tel := telemetry.New()

	var (
		dev disk.Device
		d   *disk.Disk
		vl  *vol.Volume
		err error
	)
	if o.Volume != nil {
		vc := *o.Volume
		if vc.Member == nil && o.Disk != nil {
			vc.Member = o.Disk
		}
		vl, err = vol.New(s, "vol0", vc)
		if err != nil {
			return nil, err
		}
		dev = vl
	} else {
		dp := disk.DefaultParams()
		if o.Disk != nil {
			dp = *o.Disk
		}
		d = disk.New(s, "sd0", dp)
		dev = d
	}

	dc := driver.DefaultConfig()
	if o.Driver != nil {
		dc = *o.Driver
	}
	dr := driver.New(s, dev, cm, dc)

	inj, err := fault.NewInjector(s, o.Fault)
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	if vl != nil {
		vl.AttachFaults(inj)
	} else {
		d.AttachFaults(inj)
	}

	var repairLog *ufs.RepairReport
	var replayLog *wal.RecoverReport
	if len(o.Images) > 0 || o.Recover {
		// Boot from platters. A count that does not match the device is
		// refused, never papered over with a fresh mkfs.
		members := []*disk.Disk{d}
		if vl != nil {
			members = vl.Members()
		}
		if len(o.Images) != len(members) {
			return nil, fmt.Errorf("boot: %d platter images for %d member drives", len(o.Images), len(members))
		}
		for i, img := range o.Images {
			if img == nil {
				return nil, fmt.Errorf("boot: platter image %d is nil", i)
			}
			members[i].Restore(img)
		}
		if o.Recover {
			// A journaled image recovers by log replay — cost bounded by
			// the log region size — instead of the full-image sweep. The
			// restored superblock says which kind it is; an unreadable
			// primary superblock falls back to Repair, which knows how to
			// search the alternates.
			if sb, sbErr := ufs.ReadSuperblock(dev); sbErr == nil && sb.LogFrags > 0 {
				base, sectors := logGeometry(sb)
				replayLog, err = wal.Recover(dev, base, sectors, int(sb.Bsize))
				if err != nil {
					return nil, fmt.Errorf("wal recover: %w", err)
				}
			} else {
				repairLog, err = ufs.Repair(dev)
				if err != nil {
					return nil, fmt.Errorf("repair: %w", err)
				}
			}
		}
	} else {
		if o.Journal != nil && o.Mkfs.LogBlocks == 0 {
			o.Mkfs.LogBlocks = wal.LogBlocks
		}
		sb, err := ufs.Mkfs(dev, o.Mkfs)
		if err != nil {
			return nil, fmt.Errorf("mkfs: %w", err)
		}
		if sb.LogFrags > 0 {
			base, _ := logGeometry(sb)
			wal.Format(dev, base)
		}
	}
	fs, err := ufs.Mount(s, cm, dr, o.Mount)
	if err != nil {
		return nil, fmt.Errorf("mount: %w", err)
	}
	// The mount follows the format: any image whose superblock carries a
	// log region gets the journal attached, whether this machine was
	// built with WithJournal or restored from a journaled donor.
	var jl *wal.Log
	if fs.SB.LogFrags > 0 {
		cfg := wal.Config{}
		if o.Journal != nil {
			cfg = *o.Journal
		}
		base, sectors := logGeometry(fs.SB)
		jl, err = wal.New(s, dr, base, sectors, int(fs.SB.Bsize), cfg)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		jl.Flush = fs.StageCommit
		fs.AttachJournal(jl)
	}
	v := vm.New(s, cm, o.MemBytes)
	eng := core.NewEngine(s, cm, v, fs, o.Engine)
	cm.AttachTelemetry(tel)
	if vl != nil {
		vl.AttachTelemetry(tel)
	} else {
		d.AttachTelemetry(tel)
	}
	dr.AttachTelemetry(tel)
	fs.AttachTelemetry(tel)
	if jl != nil {
		// Journal metrics exist only on journaled machines, so the
		// pinned metric manifest of a default machine never changes.
		jl.AttachTelemetry(tel)
		tel.Reg.Counter("fs.journal_meta_writes", func() int64 { return fs.JournalMetaWrites })
	}
	v.AttachTelemetry(tel)
	eng.AttachTelemetry(tel)
	if o.EventJSONL != nil {
		tel.Bus.Subscribe(telemetry.NewJSONL(o.EventJSONL).Write)
	}
	// The injector's telemetry goes last so its crash_cut / fault_inject
	// lines appear in the JSONL stream after the event that triggered
	// them — the bus runs subscribers in registration order.
	inj.AttachTelemetry(tel)
	if replayLog != nil && tel.Bus.Active() {
		// Boot-time replay happened before the bus had subscribers;
		// surface it as the stream's first event.
		tel.Bus.Emit(telemetry.Event{
			T: s.Now(), Kind: telemetry.EvLogReplay,
			Blocks: int64(replayLog.Txns), Bytes: replayLog.SectorsRead, Depth: replayLog.SectorsWritten,
		})
	}
	return &Machine{Sim: s, CPU: cm, Dev: dev, Disk: d, Vol: vl, Driver: dr, VM: v, FS: fs,
		Engine: eng, Tel: tel, Fault: inj, RepairLog: repairLog, WAL: jl, ReplayLog: replayLog}, nil
}

// logGeometry converts the superblock's log-region fragments to the
// device sector range the wal package works in.
func logGeometry(sb *ufs.Superblock) (base, sectors int64) {
	return sb.FsbToDb(sb.LogStart), int64(sb.LogFrags) * int64(sb.Fsize) / disk.SectorSize
}

// Run spawns fn as a simulated process and drives the simulation until
// it (and everything it started) finishes.
func (m *Machine) Run(fn func(p *sim.Proc)) error {
	m.Sim.Spawn("main", fn)
	return m.Sim.Run()
}

// Close tears down the machine's simulation, unwinding the daemon
// goroutines (disk service loop, pageout) that otherwise outlive it.
// Call it once the machine is no longer needed; a Machine that is
// never closed leaks one host goroutine per daemon, which a parallel
// sweep running thousands of machines cannot afford.
func (m *Machine) Close() { m.Sim.Close() }

// Fsck flushes all state to the disk image and checks it.
func (m *Machine) Fsck() (*ufs.FsckReport, error) {
	m.FS.SyncImage()
	return ufs.Fsck(m.Dev)
}

// Snapshot reads every registered metric and histogram at the current
// virtual time. It is a pure read — no counter is disturbed, no
// simulated time passes — so interval measurement is simply:
//
//	pre := m.Snapshot()
//	... measured phase ...
//	delta := m.Snapshot().Delta(pre)
func (m *Machine) Snapshot() telemetry.Snapshot {
	return m.Tel.Reg.Snapshot(m.Sim.Now())
}
