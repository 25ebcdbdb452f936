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
	// must be exactly one per member drive, in member order, as
	// vol.Volume.Snapshot returns them. A journaled image replays its log
	// before mounting; Recover additionally repairs an unjournaled image
	// — the crash-recovery path — and needs images to recover.
	Images  []*disk.Image
	Recover bool

	// Volume, when non-nil, composes the machine's storage from several
	// member drives (concat, RAID-0/1/5 — see internal/vol); nil is the
	// single drive sd0, a one-member concat of disk.DefaultParams().
	Volume *vol.Config
}

// Machine is a fully assembled simulated system.
type Machine struct {
	Sim *sim.Sim
	CPU *cpu.Model

	// Vol is the machine's storage under the driver: the composed
	// volume, or the single drive sd0 as a one-member concat.
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

	// ReplayLog is the log-replay report when a journaled machine booted
	// from an image (WithImage or WithRecovery): ufs.Recover replayed
	// the journal instead of running ufs.Repair. Nil otherwise.
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

	vc := vol.Config{Level: vol.Concat, Members: 1}
	if o.Volume != nil {
		vc = *o.Volume
	}
	vl, err := vol.New(s, "vol0", vc)
	if err != nil {
		return nil, err
	}

	dc := driver.DefaultConfig()
	if o.Driver != nil {
		dc = *o.Driver
	}
	dr := driver.New(s, vl, cm, dc)

	inj, err := fault.NewInjector(s, o.Fault)
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	vl.AttachFaults(inj)

	var repairLog *ufs.RepairReport
	var replayLog *wal.RecoverReport
	if len(o.Images) > 0 || o.Recover {
		// Boot from platters. A count that does not match the device is
		// refused, never papered over with a fresh mkfs.
		if err := vl.Restore(o.Images); err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		if repairLog, replayLog, err = ufs.Recover(vl, o.Recover); err != nil {
			return nil, err
		}
	} else if _, err := ufs.Mkfs(vl, o.Mkfs); err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	fs, err := ufs.Mount(s, cm, dr, o.Mount)
	if err != nil {
		return nil, fmt.Errorf("mount: %w", err)
	}
	v := vm.New(s, cm, o.MemBytes)
	eng := core.NewEngine(s, cm, v, fs, o.Engine)
	cm.AttachTelemetry(tel)
	vl.AttachTelemetry(tel)
	dr.AttachTelemetry(tel)
	fs.AttachTelemetry(tel)
	v.AttachTelemetry(tel)
	eng.AttachTelemetry(tel)
	if o.EventJSONL != nil {
		tel.Bus.Subscribe(telemetry.NewJSONL(o.EventJSONL).Write)
	}
	inj.AttachTelemetry(tel)
	if replayLog != nil {
		// Boot-time replay happened before the bus had subscribers;
		// surface it as the stream's first event.
		tel.Bus.Emit(telemetry.Event{
			T: s.Now(), Kind: telemetry.EvLogReplay,
			Blocks: int64(replayLog.Txns), Bytes: replayLog.SectorsRead, Depth: replayLog.SectorsWritten,
		})
	}
	return &Machine{Sim: s, CPU: cm, Vol: vl, Driver: dr, VM: v, FS: fs,
		Engine: eng, Tel: tel, Fault: inj, RepairLog: repairLog, ReplayLog: replayLog}, nil
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
	return ufs.Fsck(m.Vol)
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
