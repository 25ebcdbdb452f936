package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
)

// recorder keeps the traced pass's observations of one rep in memory:
// the bus events that mark layer boundaries, stamped with host time,
// and one span per op. Nothing is written until the run ends.
type recorder struct {
	on     bool // true only during the measured phase
	events []stampedEvent
	ops    []opSpan
}

type stampedEvent struct {
	telemetry.Event
	host time.Time
}

type opSpan struct {
	name         string
	v0, v1       sim.Time
	host0, host1 time.Time
}

// event is the bus subscriber. It only appends: a subscriber must not
// perturb simulated state.
func (rc *recorder) event(ev telemetry.Event) {
	if !rc.on {
		return
	}
	switch ev.Kind {
	case telemetry.EvIOQueue, telemetry.EvIOStart, telemetry.EvIODone,
		telemetry.EvReadAhead, telemetry.EvLogCommit, telemetry.EvParityRMW:
		rc.events = append(rc.events, stampedEvent{ev, time.Now()})
	}
}

func (rc *recorder) op(name string, v0, v1 sim.Time, h0, h1 time.Time) {
	rc.ops = append(rc.ops, opSpan{name, v0, v1, h0, h1})
}

// ioKey pairs the events of one device request. The driver has no
// request id yet, so sector and direction stand in for one; requests to
// the same sector pair in FIFO order.
type ioKey struct {
	sector int64
	write  bool
}

// deviceTimes returns, in µs, the driver-level latency of every request
// (io_queue→io_done, carried by io_done) and the drive's service time
// (io_start→io_done). Service times exist only on single-disk machines:
// a volume's io_start events carry member sectors that cannot be paired
// with the logical io_done.
func (rc *recorder) deviceTimes() (latency, service []float64) {
	started := map[ioKey][]sim.Time{}
	for _, ev := range rc.events {
		k := ioKey{ev.Sector, ev.Write}
		switch ev.Kind {
		case telemetry.EvIOStart:
			if ev.Dev == "" {
				started[k] = append(started[k], ev.T)
			}
		case telemetry.EvIODone:
			latency = append(latency, float64(ev.Dur)/1e3)
			if q := started[k]; len(q) > 0 {
				service = append(service, float64(ev.T-q[0])/1e3)
				started[k] = q[1:]
			}
		}
	}
	return latency, service
}

// span is one line of the span file. Times are ns: virtual since the
// machine booted, host since the measured phase began.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Name      string `json:"name"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	Dev       string `json:"dev,omitempty"`
	Sector    *int64 `json:"sector,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
}

const (
	rootSpanID  = 1 // the measured phase
	asyncSpanID = 2 // device work no op was waiting in: read-ahead, pageout, checkpoint
)

// spans turns the recording into a tree: root → ops → device requests →
// drive service, plus zero-length marks for read_ahead, log_commit,
// parity_rmw and volume-member io_start events. A device span's parent
// is the op whose virtual interval contains its io_queue time, else the
// async root — time containment is the best available until requests
// carry an id.
func (rc *recorder) spans(phaseStart time.Time) []span {
	if len(rc.ops) == 0 {
		return nil
	}
	host := func(t time.Time) int64 { return t.Sub(phaseStart).Nanoseconds() }
	first, last := rc.ops[0], rc.ops[len(rc.ops)-1]
	out := []span{
		{ID: rootSpanID, Name: "measured_phase", VirtStart: int64(first.v0), VirtEnd: int64(last.v1),
			HostStart: host(first.host0), HostEnd: host(last.host1)},
		{ID: asyncSpanID, Parent: rootSpanID, Name: "async", VirtStart: int64(first.v0), VirtEnd: int64(last.v1),
			HostStart: host(first.host0), HostEnd: host(last.host1)},
	}
	next := asyncSpanID + 1
	opID := make([]int, len(rc.ops))
	for i, o := range rc.ops {
		opID[i] = next
		out = append(out, span{ID: next, Parent: rootSpanID, Name: o.name,
			VirtStart: int64(o.v0), VirtEnd: int64(o.v1), HostStart: host(o.host0), HostEnd: host(o.host1)})
		next++
	}
	// Ops run back to back and events arrive in time order, so one
	// cursor finds the containing op.
	cur := 0
	parentAt := func(t sim.Time) int {
		for cur < len(rc.ops) && rc.ops[cur].v1 < t {
			cur++
		}
		if cur < len(rc.ops) && rc.ops[cur].v0 <= t {
			return opID[cur]
		}
		return asyncSpanID
	}
	queued := map[ioKey][]int{}  // index into out of the open io span
	started := map[ioKey][]int{} // index into out of the open service span
	for _, ev := range rc.events {
		k := ioKey{ev.Sector, ev.Write}
		sector := ev.Sector
		switch ev.Kind {
		case telemetry.EvIOQueue:
			name := "io_read"
			if ev.Write {
				name = "io_write"
			}
			queued[k] = append(queued[k], len(out))
			out = append(out, span{ID: next, Parent: parentAt(ev.T), Name: name, VirtStart: int64(ev.T),
				HostStart: host(ev.host), Sector: &sector, Bytes: ev.Bytes})
			next++
		case telemetry.EvIOStart:
			s := span{ID: next, Name: "service", VirtStart: int64(ev.T), VirtEnd: int64(ev.T),
				HostStart: host(ev.host), HostEnd: host(ev.host), Dev: ev.Dev, Sector: &sector, Bytes: ev.Bytes}
			if q := queued[k]; ev.Dev == "" && len(q) > 0 {
				s.Parent = out[q[0]].ID
				started[k] = append(started[k], len(out))
			} else {
				s.Name, s.Parent = "member_io_start", parentAt(ev.T)
			}
			out = append(out, s)
			next++
		case telemetry.EvIODone:
			for _, m := range []map[ioKey][]int{queued, started} {
				if q := m[k]; len(q) > 0 {
					out[q[0]].VirtEnd, out[q[0]].HostEnd = int64(ev.T), host(ev.host)
					m[k] = q[1:]
				}
			}
		default:
			out = append(out, span{ID: next, Parent: parentAt(ev.T), Name: ev.Kind.String(),
				VirtStart: int64(ev.T), VirtEnd: int64(ev.T), HostStart: host(ev.host), HostEnd: host(ev.host),
				Sector: &sector, Bytes: ev.Bytes})
			next++
		}
	}
	// Requests still in flight when the phase ends (a read-ahead nobody
	// waited for, a delayed write) are closed at its end.
	for _, m := range []map[ioKey][]int{queued, started} {
		for _, q := range m {
			for _, i := range q {
				out[i].VirtEnd, out[i].HostEnd = int64(last.v1), host(last.host1)
			}
		}
	}
	return out
}

// writeSpans writes the span tree of one rep as JSON Lines.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// hostLayers are the packages whose self time the profile reports under
// their own name; the rest of this module lands in "other".
var hostLayers = []string{"sim", "cpu", "disk", "driver", "vm", "ufs", "core", "prefetch", "vol", "wal", "telemetry"}

// layerOf maps a profile function name to the layer that owns its self
// time: a module package, "bench" for this program, "runtime" for the Go
// runtime and standard library (GC, scheduler, memmove, sort, ...).
func layerOf(fn string) string {
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime"
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "ufsclust/internal/"):
		name := strings.TrimPrefix(pkg, "ufsclust/internal/")
		for _, l := range hostLayers {
			if name == l {
				return l
			}
		}
		return "other"
	case pkg == "ufsclust":
		return "other"
	}
	return "runtime"
}

// addProfile adds the samples of one gzipped pprof CPU profile to
// shares, keyed by the layer of each sample's leaf function.
func addProfile(shares map[string]int64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	// profile.proto: Profile{2: sample, 4: location, 5: function,
	// 6: string_table}; Sample{1: location_id, 2: value};
	// Location{1: id, 4: line}; Line{1: function_id}; Function{1: id,
	// 2: name}. Leaf first in every list.
	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcName = map[uint64]uint64{} // function id → string index
		strs     []string
	)
	err = protoFields(data, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			haveLoc, haveVal := false, false
			err := protoFields(msg, func(num int, v uint64, packed []byte) error {
				if packed != nil {
					v, _ = binary.Uvarint(packed)
				}
				switch {
				case num == 1 && !haveLoc:
					s.loc, haveLoc = v, true
				case num == 2 && !haveVal:
					s.count, haveVal = int64(v), true
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLoc {
				samples = append(samples, s)
			}
		case 4:
			var id, fn uint64
			haveLine := false
			err := protoFields(msg, func(num int, v uint64, line []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !haveLine:
					haveLine = true
					return protoFields(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id, name uint64
			err := protoFields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.loc]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[layerOf(name)] += s.count
	}
	return nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for every field of one protobuf message: with the
// value for varint fields, with the payload for length-delimited ones.
func protoFields(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(tag >> 3)
		switch tag & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			// A subslice is never nil, so fn can tell an empty payload
			// from a varint field.
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return errProto
		}
	}
	return nil
}

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
