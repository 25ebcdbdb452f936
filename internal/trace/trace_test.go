package trace

import (
	"reflect"
	"strings"
	"testing"
)

func render(t *testing.T, f *Figure, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	f.Render(&sb)
	return sb.String()
}

// matches requires a figure's every page — its full action list and
// the predictor after the call — to equal the paper's figure, written
// out below as a literal table.
func matches(t *testing.T, f *Figure, err error, want []PageEvents) {
	t.Helper()
	out := render(t, f, err)
	t.Logf("\n%s", out)
	if !reflect.DeepEqual(f.Pages, want) {
		t.Errorf("figure differs from the paper's:\n got %+v\nwant %+v", f.Pages, want)
	}
}

// The three tables are exact, so they also imply the engine counters the
// same patterns were once checked by: every synchronous read emits one
// "sync" action and every pushed cluster one "push" (one write I/O); a
// read-ahead emits "async" unless its whole span is already cached, and
// in these figures each read-ahead reaches past everything read so far;
// a demand page with no "sync" action was a cache hit.

// TestFigure3MatchesPaper: legacy read-ahead, one block at a time. Three
// faults make one synchronous read and three read-aheads, pages 1 and 2
// are cache hits, and nextr ends at 3.
func TestFigure3MatchesPaper(t *testing.T) {
	f, err := Figure3()
	matches(t, f, err, []PageEvents{
		{Page: 0, Actions: []string{"sync 0", "async 1"}, Pred: 1},
		{Page: 1, Actions: []string{"async 2"}, Pred: 2},
		{Page: 2, Actions: []string{"async 3"}, Pred: 3},
	})
}

// TestFigure6MatchesPaper: clustered reads, maxcontig = 3. One
// synchronous cluster read, then a read-ahead cluster whenever the
// reader reaches the start of the last one: nextrio 6, 9, 12.
func TestFigure6MatchesPaper(t *testing.T) {
	f, err := Figure6()
	matches(t, f, err, []PageEvents{
		{Page: 0, Actions: []string{"sync 0,1,2", "async 3,4,5"}, Pred: 6},
		{Page: 1, Pred: 6},
		{Page: 2, Pred: 6},
		{Page: 3, Actions: []string{"async 6,7,8"}, Pred: 9},
		{Page: 4, Pred: 9},
		{Page: 5, Pred: 9},
		{Page: 6, Actions: []string{"async 9,10,11"}, Pred: 12},
	})
}

// TestFigure7MatchesPaper: clustered writes, maxcontig = 3. Every write
// lies (six lies), and the third and sixth push a full cluster: write
// I/Os 0, 0, 1, 1, 1, 2 after each page.
func TestFigure7MatchesPaper(t *testing.T) {
	f, err := Figure7()
	matches(t, f, err, []PageEvents{
		{Page: 0, Actions: []string{"lie"}},
		{Page: 1, Actions: []string{"lie"}},
		{Page: 2, Actions: []string{"lie", "push 0,1,2"}},
		{Page: 3, Actions: []string{"lie"}},
		{Page: 4, Actions: []string{"lie"}},
		{Page: 5, Actions: []string{"lie", "push 3,4,5"}},
	})
}

func TestRenderLayout(t *testing.T) {
	f := &Figure{
		Title:     "test",
		PredLabel: "nextr",
		Pages: []PageEvents{
			{Page: 0, Actions: []string{"sync 0"}, Pred: 1},
			{Page: 1, Pred: 2},
		},
	}
	var sb strings.Builder
	f.Render(&sb)
	out := sb.String()
	for _, want := range []string{"test", "page", "sync 0", "nextr"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
