package telemetry

import (
	"io"
	"strconv"

	"ufsclust/internal/sim"
)

// EventKind identifies what happened. The taxonomy covers the paper's
// data path end to end: queueing and service at the drive, the engine's
// read/write clustering decisions, and the VM daemon's sweeps.
type EventKind uint8

// Event kinds. Emission sites (one each, so same-seed streams replay
// byte-identically):
//
//	EvIOQueue     driver.Strategy accepted a request
//	EvIOStart     the drive began servicing a request
//	EvIODone      the driver's completion interrupt ran
//	EvSyncRead    the engine issued a demand read
//	EvReadAhead   the engine issued an asynchronous prefetch
//	EvWriteLie    a delayed ("lied about") putpage
//	EvClusterPush the engine wrote out a cluster of dirty pages
//	EvFreeBehind  a sequential read freed the page behind it
//	EvPageoutScan the pageout daemon finished one sweep
//	EvFaultInject the drive failed a transfer per the fault plan
//	EvIORetry     the driver rescheduled a failed transfer
//	EvIOGiveup    the driver exhausted its retries for a transfer
//	EvCrashCut    the fault injector power-cut the machine
//	EvRAWindow    a read-ahead policy decision: LBN is the window start,
//	              Blocks the post-clamp window size in blocks (0 on a
//	              collapse or an unconfirmed trigger), Depth the
//	              detector's sequentiality confidence. Emitted only by
//	              non-fixed policies, so default-policy streams replay
//	              the pre-policy fixtures byte-for-byte.
//	EvParityRMW   a RAID-5 volume turned a partial-stripe write into a
//	              read-modify-write: Sector is the row's first logical
//	              sector, Blocks the data pieces rewritten.
//	EvDegradedRead a redundant volume served a read by reconstruction
//	              (mirror failover or parity XOR) instead of the failed
//	              member.
//	EvMemberFail  a volume marked a member device failed (media give-up
//	              or administrative kill); Depth is the member index.
//	EvVecIO       the engine executed a vectored Readv/Writev: LBN is the
//	              envelope's first file block, Bytes the payload, Blocks
//	              the merged-run count, Depth the chosen method (0 naive,
//	              1 sieve, 2 list). Single-element vectors degenerate to
//	              the scalar paths and emit nothing, so pre-vec streams
//	              replay byte-for-byte.
//	EvLogCommit   the metadata journal committed a transaction: Sector is
//	              the log sector the record landed at, Bytes the record
//	              size, Blocks the metadata blocks it carries. Emitted
//	              only on journaled machines (WithJournal), so default
//	              streams replay the pre-journal fixtures byte-for-byte.
//	EvLogCheckpoint the journal wrote its committed blocks home and reset
//	              the log: Blocks is the blocks written in place, Depth
//	              the new log epoch.
//	EvLogReplay   boot recovery replayed the journal: Blocks is the
//	              transactions applied, Bytes the sectors read, Depth the
//	              sectors written.
//
// New kinds are appended, never inserted: the wire names below are part
// of the JSONL stream format that committed golden fixtures replay.
const (
	EvIOQueue EventKind = iota
	EvIOStart
	EvIODone
	EvSyncRead
	EvReadAhead
	EvWriteLie
	EvClusterPush
	EvFreeBehind
	EvPageoutScan
	EvFaultInject
	EvIORetry
	EvIOGiveup
	EvCrashCut
	EvRAWindow
	EvParityRMW
	EvDegradedRead
	EvMemberFail
	EvVecIO
	EvLogCommit
	EvLogCheckpoint
	EvLogReplay
	numEventKinds
)

var kindNames = [numEventKinds]string{
	"io_queue", "io_start", "io_done", "sync_read", "read_ahead",
	"write_lie", "cluster_push", "free_behind", "pageout_scan",
	"fault_inject", "io_retry", "io_giveup", "crash_cut", "ra_window",
	"parity_rmw", "degraded_read", "member_fail", "vec_io",
	"log_commit", "log_checkpoint", "log_replay",
}

// String returns the kind's snake_case wire name.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured trace record. It is a plain value — emitting
// one allocates nothing — and only the fields relevant to the kind are
// set; the rest stay zero.
type Event struct {
	T      sim.Time  // virtual time of emission
	Kind   EventKind //
	Sector int64     // device sector (I/O events)
	LBN    int64     // file logical block (engine events)
	Bytes  int64     // transfer size in bytes
	Blocks int64     // blocks in the cluster / pages freed
	Depth  int64     // queue depth at emission / pages scanned
	Dur    sim.Time  // request latency (EvIODone)
	Write  bool      // transfer direction (I/O events)
	// Dev labels the member device of a volume ("sd1"); empty on a
	// single-drive machine and on volume-level events, so single-spindle
	// streams replay the pre-volume fixtures byte-for-byte.
	Dev string
}

// Bus fans events out to subscribers. The zero value is ready to use,
// and both a nil bus and a bus with no subscribers make Emit a no-op
// that performs no allocation — instrumented hot paths pay only a nil
// check and a length test when nobody is listening.
type Bus struct {
	subs []func(Event)
}

// Subscribe adds a handler. Handlers run synchronously at the emission
// site, in subscription order, in simulated-process or scheduler
// context — they must not block and must not perturb simulated state.
func (b *Bus) Subscribe(fn func(Event)) {
	b.subs = append(b.subs, fn)
}

// Emit delivers ev to every subscriber.
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	for _, fn := range b.subs {
		fn(ev)
	}
}

// JSONLWriter renders events as JSON Lines with a fixed field order,
// so same-seed runs export byte-identical streams. Subscribe its Write
// method: bus.Subscribe(w.Write). Errors are sticky; check Err once
// the run is over.
type JSONLWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewJSONL returns a JSONL writer over w.
func NewJSONL(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: w, buf: make([]byte, 0, 160)}
}

// Write renders one event as a single JSON line.
func (jw *JSONLWriter) Write(ev Event) {
	if jw.err != nil {
		return
	}
	b := jw.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(ev.T), 10)
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","sector":`...)
	b = strconv.AppendInt(b, ev.Sector, 10)
	b = append(b, `,"lbn":`...)
	b = strconv.AppendInt(b, ev.LBN, 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, ev.Bytes, 10)
	b = append(b, `,"blocks":`...)
	b = strconv.AppendInt(b, ev.Blocks, 10)
	b = append(b, `,"depth":`...)
	b = strconv.AppendInt(b, ev.Depth, 10)
	b = append(b, `,"dur":`...)
	b = strconv.AppendInt(b, int64(ev.Dur), 10)
	b = append(b, `,"write":`...)
	b = strconv.AppendBool(b, ev.Write)
	if ev.Dev != "" {
		// Member tag, volume machines only: omitted when empty so the
		// pre-volume goldens stay byte-identical.
		b = append(b, `,"dev":"`...)
		b = append(b, ev.Dev...)
		b = append(b, '"')
	}
	b = append(b, '}', '\n')
	jw.buf = b
	_, jw.err = jw.w.Write(b)
}

// Err returns the first write error, if any.
func (jw *JSONLWriter) Err() error { return jw.err }
