// Package faultlab is the crash-consistency harness: it runs a
// sequential write workload on a machine with a power-cut fault plan,
// freezes the platter at the cut, boots a fresh machine from the frozen
// image through repair (the reboot-and-fsck path), and verifies byte by
// byte that everything the workload had been told was durable is still
// there. A cut sweep repeats this at many instants across the workload
// and reports the outcome distribution; any LOST-DATA / CORRUPT /
// FSCK-DIRTY outcome is a crash-consistency bug in the file system.
package faultlab

import (
	"fmt"
	"sort"
	"strings"

	"ufsclust"
	"ufsclust/internal/disk"
	"ufsclust/internal/fault"
	"ufsclust/internal/runner"
	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/ufs"
)

// Workload is a sequential create-write-fsync job, the write cell of
// IObench with a durability watermark: every byte is a deterministic
// pattern of its offset, and the workload records how much the file
// system has acknowledged as durable (fsync returned) at any instant.
type Workload struct {
	// Scenario is the machine the workload runs on — including a
	// volume (degraded members and all, so a cut sweep can prove the
	// durability contract holds with a spindle already dead) or a
	// journal (recovery after the cut is then a log replay whose cost
	// is bounded by the log region size, under the same zero-violation
	// bar). Seed also keys the byte pattern.
	ufsclust.Scenario

	FileMB     int // file size in MB; default 16 (the paper's IObench file)
	IOSize     int // bytes per write call; default 8192
	FsyncEvery int // fsync after every N bytes written; 0 = only a final fsync
	Path       string
}

// boot assembles one machine of this workload (seedOff keeps the
// builder, crash, and recovery machines on distinct seeds). Every entry
// point boots before it does anything else, so this is where a
// negative size is refused.
func (w Workload) boot(seedOff int64, extra ...ufsclust.Option) (*ufsclust.Machine, error) {
	if w.FileMB < 0 || w.IOSize < 0 || w.FsyncEvery < 0 {
		return nil, fmt.Errorf("negative size (file %d MB, I/O %d, fsync every %d)", w.FileMB, w.IOSize, w.FsyncEvery)
	}
	sc := w.Scenario
	sc.Seed += seedOff
	return sc.New(extra...)
}

func (w Workload) withDefaults() Workload {
	if w.FileMB == 0 {
		w.FileMB = 16
	}
	if w.IOSize == 0 {
		w.IOSize = 8192
	}
	if w.Path == "" {
		w.Path = "/faultlab"
	}
	return w
}

// Size returns the workload's total byte count.
func (w Workload) Size() int64 { return int64(w.FileMB) << 20 }

// PatternByte is the expected content of the workload file at offset
// off: deterministic, seed-dependent, and never zero — so an
// unwritten or torn-away sector (zeros) can never masquerade as data.
func PatternByte(seed, off int64) byte {
	x := uint64(off)*0x9E3779B97F4A7C15 + uint64(seed)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 29
	return byte(x%255) + 1
}

// CrashState is what survives a power cut: the frozen platter and the
// workload's durability watermark at the instant the lights went out.
type CrashState struct {
	// Images is the frozen platter set, one per member drive in member
	// order (a single image for the bare disk).
	Images []*disk.Image
	// Acked is the durability watermark: -1 until Create returned
	// (the file itself may not exist), then the number of leading
	// bytes fsync has acknowledged.
	Acked   int64
	Crashed bool
	Cut     sim.Time // cut instant (valid when Crashed)
	End     sim.Time // virtual time the workload finished (when !Crashed)
}

// RunToCrash executes the workload on a fresh machine under plan and
// returns the frozen aftermath. If the plan never cuts power the
// workload runs to completion and the state holds the final image with
// Acked == w.Size().
func RunToCrash(w Workload, plan fault.Plan) (*CrashState, error) {
	w = w.withDefaults()
	m, err := w.boot(1, ufsclust.WithFaultPlan(plan))
	if err != nil {
		return nil, err
	}
	defer m.Close()

	size := w.Size()
	acked := int64(-1)
	var runErr error
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Create(p, w.Path)
		if err != nil {
			runErr = err
			return
		}
		// Create writes the directory entry and inode synchronously, so
		// the file's existence is durable the moment it returns.
		acked = 0
		chunk := make([]byte, w.IOSize)
		since := 0
		for off := int64(0); off < size; off += int64(len(chunk)) {
			for i := range chunk {
				chunk[i] = PatternByte(w.Seed, off+int64(i))
			}
			if _, err := f.Write(p, off, chunk); err != nil {
				runErr = err
				return
			}
			since += len(chunk)
			if w.FsyncEvery > 0 && since >= w.FsyncEvery {
				if err := f.Fsync(p); err != nil {
					runErr = err
					return
				}
				acked = off + int64(len(chunk))
				since = 0
			}
		}
		if err := f.Fsync(p); err != nil {
			runErr = err
			return
		}
		acked = size
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil && !m.Fault.Crashed() {
		return nil, fmt.Errorf("faultlab: workload failed without a crash: %w", runErr)
	}
	st := &CrashState{
		Acked:   acked,
		Crashed: m.Fault.Crashed(),
	}
	if m.Vol != nil {
		st.Images = m.Vol.Snapshot()
	} else {
		st.Images = []*disk.Image{m.Disk.Snapshot()}
	}
	if st.Crashed {
		st.Cut = m.Fault.CrashTime()
	} else {
		st.End = m.Sim.Now()
	}
	return st, nil
}

// Outcome classifies one crash-recovery round trip.
type Outcome string

// Outcomes, benign first. The upper-case ones are file-system bugs.
const (
	OutcomeFull     Outcome = "full"       // entire file durable and intact
	OutcomeTornTail Outcome = "torn-tail"  // acked prefix intact, tail partially flushed
	OutcomeAbsent   Outcome = "absent"     // cut before create was durable; no file
	OutcomeLostData Outcome = "LOST-DATA"  // acknowledged bytes missing or wrong
	OutcomeCorrupt  Outcome = "CORRUPT"    // recovered bytes that were never written
	OutcomeDirty    Outcome = "FSCK-DIRTY" // repair left an inconsistent file system
)

// Violation reports whether the outcome is a crash-consistency bug.
func (o Outcome) Violation() bool {
	return o == OutcomeLostData || o == OutcomeCorrupt || o == OutcomeDirty
}

// Report is the verdict on one cut.
type Report struct {
	Outcome Outcome
	Cut     sim.Time // when power was cut (0: workload completed uncut)
	Acked   int64    // durability watermark at the cut
	Size    int64    // recovered file size (-1: file absent)
	Fixes   int      // repairs applied on reboot (full-image repair only)
	Detail  string   // first violation, for the violation outcomes

	// Journaled recovery accounting (journaled workloads only): the
	// boot replayed ReplayTxns committed transactions, reading
	// RecoverySectorsRead sectors against the structural bound
	// RecoveryBound (the log region size). The bound is independent of
	// the image size — the whole point of the journal.
	ReplayTxns          int
	RecoverySectorsRead int64
	RecoveryBound       int64
}

// Recover boots a fresh machine from the crash state's image through
// recovery — ufs.Repair classically, the journal replay that already
// ran at boot on a journaled image — reads the workload file back, and
// verifies the durability contract: every acknowledged byte intact,
// every byte beyond the watermark either the written pattern (made it
// to the platter before the cut) or zero (didn't) — anything else is
// corruption. The repair report of the recovery boot is returned
// alongside the verdict (nil on a journaled boot, which has no repair).
func Recover(w Workload, st *CrashState) (*Report, *ufs.RepairReport, error) {
	w = w.withDefaults()
	m, err := w.boot(2, ufsclust.WithRecovery(st.Images...))
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()

	rep := &Report{Cut: st.Cut, Acked: st.Acked, Size: -1}
	rr := m.RepairLog
	if rl := m.ReplayLog; rl != nil {
		// Journaled boot: recovery was the log replay, already done and
		// accounted. The read-only Fsck here is the harness verifying
		// that replay alone left a consistent image — verification
		// cost, deliberately not folded into the recovery numbers.
		rep.ReplayTxns = rl.Txns
		rep.RecoverySectorsRead = rl.SectorsRead
		rep.RecoveryBound = rl.LogSectors
		chk, err := ufs.Fsck(m.Dev)
		if err != nil {
			return nil, nil, fmt.Errorf("faultlab: post-replay fsck: %w", err)
		}
		if !chk.Clean() {
			rep.Outcome = OutcomeDirty
			rep.Detail = strings.Join(chk.Problems, "; ")
			return rep, nil, nil
		}
	} else {
		rep.Fixes = len(rr.Fixes)
		if !rr.Clean() {
			rep.Outcome = OutcomeDirty
			rep.Detail = strings.Join(rr.Check.Problems, "; ")
			return rep, rr, nil
		}
	}

	var data []byte
	var openErr, readErr error
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Open(p, w.Path)
		if err != nil {
			openErr = err
			return
		}
		data = make([]byte, f.Size())
		if _, err := f.Read(p, 0, data); err != nil {
			readErr = err
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if readErr != nil {
		return nil, nil, fmt.Errorf("faultlab: reading recovered file: %w", readErr)
	}
	if openErr != nil {
		if st.Acked < 0 {
			rep.Outcome = OutcomeAbsent
			return rep, rr, nil
		}
		rep.Outcome = OutcomeLostData
		rep.Detail = fmt.Sprintf("file lost after create was acknowledged: %v", openErr)
		return rep, rr, nil
	}
	rep.Size = int64(len(data))

	if rep.Size < st.Acked {
		rep.Outcome = OutcomeLostData
		rep.Detail = fmt.Sprintf("size %d < acknowledged %d", rep.Size, st.Acked)
		return rep, rr, nil
	}
	intact := true
	for off := int64(0); off < rep.Size; off++ {
		want := PatternByte(w.Seed, off)
		got := data[off]
		if got == want {
			continue
		}
		if off < st.Acked {
			rep.Outcome = OutcomeLostData
			rep.Detail = fmt.Sprintf("acknowledged byte %d: got %#02x, want %#02x", off, got, want)
			return rep, rr, nil
		}
		if got != 0 {
			rep.Outcome = OutcomeCorrupt
			rep.Detail = fmt.Sprintf("byte %d beyond watermark: got %#02x, want %#02x or 0", off, got, want)
			return rep, rr, nil
		}
		intact = false
	}
	if intact && rep.Size == w.Size() {
		rep.Outcome = OutcomeFull
	} else {
		rep.Outcome = OutcomeTornTail
	}
	return rep, rr, nil
}

// CrashAndRecover is one full round trip: run to the cut, reboot,
// repair, verify.
func CrashAndRecover(w Workload, plan fault.Plan) (*Report, error) {
	st, err := RunToCrash(w, plan)
	if err != nil {
		return nil, err
	}
	rep, _, err := Recover(w, st)
	return rep, err
}

// SweepResult is the outcome distribution of a cut sweep.
type SweepResult struct {
	Workload Workload
	Total    sim.Time // baseline (uncut) virtual duration of the workload
	Reports  []Report // one per cut, in cut-time order
}

// Violations returns the reports whose outcome is a bug.
func (sr *SweepResult) Violations() []Report {
	var out []Report
	for _, r := range sr.Reports {
		if r.Outcome.Violation() {
			out = append(out, r)
		}
	}
	return out
}

// Sweep runs the workload uncut to measure its virtual duration T,
// then crashes it at n instants evenly spaced across (0, T) and
// verifies every recovery, across workers host goroutines (0 means
// GOMAXPROCS, 1 serial). Every machine is seeded only by the workload,
// so the sweep is deterministic regardless of worker count.
func Sweep(w Workload, n, workers int) (*SweepResult, error) {
	w = w.withDefaults()
	base, err := RunToCrash(w, fault.Plan{})
	if err != nil {
		return nil, fmt.Errorf("faultlab: baseline: %w", err)
	}
	if base.Crashed || base.Acked != w.Size() {
		return nil, fmt.Errorf("faultlab: baseline did not complete (acked %d of %d)", base.Acked, w.Size())
	}
	sr := &SweepResult{Workload: w, Total: base.End}
	reports, err := runner.Map(n, runner.Options{Workers: workers}, func(i int) (Report, error) {
		cut := sim.Time(int64(base.End) * int64(i+1) / int64(n+1))
		plan := fault.Plan{Rules: []fault.Rule{fault.CutAtTime(cut)}}
		rep, err := CrashAndRecover(w, plan)
		if err != nil {
			return Report{}, fmt.Errorf("cut %d at %v: %w", i+1, cut, err)
		}
		return *rep, nil
	})
	if err != nil {
		return nil, err
	}
	sr.Reports = reports
	return sr, nil
}

// MemberReport is the verdict of a degraded-mode round trip: a spindle
// of a volume dies under read load, and the report says whether the
// file survived and whether the array was rebuilt back to health.
type MemberReport struct {
	Outcome Outcome
	Member  int    // the member the media fault was aimed at
	Failed  bool   // the volume marked the member dead
	Rebuilt bool   // member reconstructed and redundancy re-verified
	Detail  string // first violation / surfaced error
}

// RunDegradedMember is the spindle-loss round trip. It writes the
// workload to completion on a healthy volume, snapshots the member
// platters, reboots from them with a hard media fault armed on the
// given member's first read, and reads the whole file back.
//
// A redundant volume (mirror, RAID-5) must fail the member over and
// return every byte — zero violations — after which the member is
// rebuilt from the survivors and the redundancy invariant re-verified.
// A non-redundant volume (stripe set) must surface the loss as a read
// error: the CORRUPT verdict, because bytes the file system
// acknowledged are no longer servable.
func RunDegradedMember(w Workload, member int) (*MemberReport, error) {
	w = w.withDefaults()
	if w.Volume == nil {
		return nil, fmt.Errorf("faultlab: RunDegradedMember needs a volume workload")
	}
	if member < 0 || member >= w.Volume.Members {
		return nil, fmt.Errorf("faultlab: member %d out of range", member)
	}
	base, err := RunToCrash(w, fault.Plan{})
	if err != nil {
		return nil, fmt.Errorf("faultlab: building volume: %w", err)
	}
	if base.Crashed || base.Acked != w.Size() {
		return nil, fmt.Errorf("faultlab: build did not complete (acked %d of %d)", base.Acked, w.Size())
	}

	plan := fault.Plan{Rules: []fault.Rule{{
		Match: fault.Match{
			Event: telemetry.EvIOStart,
			Nth:   1,
			RW:    fault.Reads,
			Dev:   fmt.Sprintf("sd%d", member),
		},
		Kind: fault.MediaHard,
	}}}
	m, err := w.boot(3, ufsclust.WithImage(base.Images...), ufsclust.WithFaultPlan(plan))
	if err != nil {
		return nil, err
	}
	defer m.Close()

	rep := &MemberReport{Member: member}
	var data []byte
	var ioErr error
	err = m.Run(func(p *sim.Proc) {
		f, err := m.Engine.Open(p, w.Path)
		if err != nil {
			ioErr = err
			return
		}
		data = make([]byte, f.Size())
		if _, err := f.Read(p, 0, data); err != nil {
			ioErr = err
		}
	})
	if err != nil {
		return nil, err
	}
	for _, fm := range m.Vol.Failed() {
		if fm == member {
			rep.Failed = true
		}
	}
	if ioErr != nil {
		rep.Outcome = OutcomeCorrupt
		rep.Detail = fmt.Sprintf("read after member loss: %v", ioErr)
		return rep, nil
	}
	if int64(len(data)) != w.Size() {
		rep.Outcome = OutcomeLostData
		rep.Detail = fmt.Sprintf("size %d, want %d", len(data), w.Size())
		return rep, nil
	}
	for off, got := range data {
		if want := PatternByte(w.Seed, int64(off)); got != want {
			rep.Outcome = OutcomeLostData
			rep.Detail = fmt.Sprintf("byte %d: got %#02x, want %#02x", off, got, want)
			return rep, nil
		}
	}
	rep.Outcome = OutcomeFull

	if rep.Failed {
		if err := m.Vol.Rebuild(member); err != nil {
			rep.Outcome = OutcomeDirty
			rep.Detail = fmt.Sprintf("rebuild: %v", err)
			return rep, nil
		}
		if bad, first := m.Vol.CheckParity(); bad > 0 {
			rep.Outcome = OutcomeDirty
			rep.Detail = fmt.Sprintf("%d bad spans after rebuild: %v", bad, first)
			return rep, nil
		}
		rep.Rebuilt = true
	}
	return rep, nil
}

// Format renders the sweep: the outcome histogram in canonical order,
// then one line per violation.
func (sr *SweepResult) Format() string {
	counts := make(map[Outcome]int)
	for _, r := range sr.Reports {
		counts[r.Outcome]++
	}
	var sb strings.Builder
	tag := ""
	if sr.Workload.Journaled() {
		tag = ", journaled"
	}
	fmt.Fprintf(&sb, "%d cuts over %v (%s, %d MB, fsync every %d bytes%s)\n",
		len(sr.Reports), sr.Total, sr.Workload.Run.Name, sr.Workload.FileMB, sr.Workload.FsyncEvery, tag)
	for _, o := range []Outcome{OutcomeFull, OutcomeTornTail, OutcomeAbsent, OutcomeLostData, OutcomeCorrupt, OutcomeDirty} {
		if counts[o] > 0 {
			fmt.Fprintf(&sb, "  %-10s %4d\n", o, counts[o])
			delete(counts, o)
		}
	}
	var rest []string
	for o := range counts {
		rest = append(rest, string(o))
	}
	sort.Strings(rest)
	for _, o := range rest {
		fmt.Fprintf(&sb, "  %-10s %4d\n", o, counts[Outcome(o)])
	}
	for _, r := range sr.Violations() {
		fmt.Fprintf(&sb, "  VIOLATION at cut %v (acked %d): %s: %s\n", r.Cut, r.Acked, r.Outcome, r.Detail)
	}
	return sb.String()
}
