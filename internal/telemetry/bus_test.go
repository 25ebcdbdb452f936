package telemetry

import (
	"errors"
	"strings"
	"testing"

	"ufsclust/internal/sim"
)

func TestBusDelivery(t *testing.T) {
	b := &Bus{}
	b.Emit(Event{Kind: EvIOStart}) // no subscriber: dropped
	var got []Event
	b.Subscribe(func(ev Event) { got = append(got, ev) })
	b.Emit(Event{T: sim.Second, Kind: EvClusterPush, LBN: 3, Blocks: 15})
	if len(got) != 1 || got[0].Kind != EvClusterPush || got[0].Blocks != 15 {
		t.Errorf("delivered %+v", got)
	}
}

func TestNilBusSafe(t *testing.T) {
	var b *Bus
	b.Emit(Event{Kind: EvIOStart}) // must not panic
}

func TestKindNames(t *testing.T) {
	// Every kind has a wire name; the JSONL format depends on it.
	for k := EventKind(0); k < numEventKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if numEventKinds.String() != "unknown" {
		t.Errorf("out-of-range kind renders %q", numEventKinds.String())
	}
	if EvClusterPush.String() != "cluster_push" {
		t.Errorf("EvClusterPush = %q", EvClusterPush.String())
	}
}

func TestJSONLFormat(t *testing.T) {
	var sb strings.Builder
	jw := NewJSONL(&sb)
	jw.Write(Event{
		T: 1500, Kind: EvIODone, Sector: 264, Bytes: 8192,
		Depth: 2, Dur: 900, Write: true,
	})
	jw.Write(Event{T: 2000, Kind: EvReadAhead, LBN: 7, Blocks: 15})
	want := `{"t":1500,"ev":"io_done","sector":264,"lbn":0,"bytes":8192,"blocks":0,"depth":2,"dur":900,"write":true}
{"t":2000,"ev":"read_ahead","sector":0,"lbn":7,"bytes":0,"blocks":15,"depth":0,"dur":0,"write":false}
`
	if sb.String() != want {
		t.Errorf("JSONL:\n%s\nwant:\n%s", sb.String(), want)
	}
	if jw.Err() != nil {
		t.Errorf("Err = %v", jw.Err())
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("disk full")
}

func TestJSONLStickyError(t *testing.T) {
	fw := &failWriter{}
	jw := NewJSONL(fw)
	jw.Write(Event{Kind: EvIOStart})
	jw.Write(Event{Kind: EvIOStart})
	if jw.Err() == nil {
		t.Fatal("error not recorded")
	}
	if fw.n != 1 {
		t.Errorf("writer called %d times after error, want 1 (sticky)", fw.n)
	}
}

// TestEmitNoSubscriberNoAlloc is the acceptance gate for the
// instrumentation's hot-path cost: with nobody listening, Emit must not
// touch the heap.
func TestEmitNoSubscriberNoAlloc(t *testing.T) {
	b := &Bus{}
	n := testing.AllocsPerRun(1000, func() {
		b.Emit(Event{T: sim.Second, Kind: EvIOStart, Sector: 100, Bytes: 8192, Depth: 3})
	})
	if n != 0 {
		t.Errorf("Emit with no subscriber allocates %v per call, want 0", n)
	}
}

func BenchmarkEmitNoSubscriber(b *testing.B) {
	bus := &Bus{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(Event{T: sim.Time(i), Kind: EvIOStart, Sector: int64(i), Bytes: 8192})
	}
}

func BenchmarkEmitOneSubscriber(b *testing.B) {
	bus := &Bus{}
	var sink int64
	bus.Subscribe(func(ev Event) { sink += ev.Bytes })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Emit(Event{T: sim.Time(i), Kind: EvIOStart, Sector: int64(i), Bytes: 8192})
	}
	_ = sink
}
