package iobench

import (
	"testing"

	"ufsclust"
)

// TestStridedCell checks the FSTR workload's accounting: every strategy
// moves exactly the strided payload, and the forced-list run queues
// vec-tagged transfers while the forced-sieve run queues none.
func TestStridedCell(t *testing.T) {
	prm := Params{FileMB: 1, Record: 2048, Stride: 8192, VecBatch: 8}
	var want int64
	size := int64(prm.FileMB) << 20
	for off := int64(0); off+int64(prm.Record) <= size; off += int64(prm.Stride) {
		want += int64(prm.Record)
	}
	for _, name := range []string{"auto", "naive", "sieve", "list"} {
		res, snap, err := RunMeasured(ufsclust.Scenario{Run: ufsclust.RunA(), Vec: name}, FSTR, prm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Bytes != want {
			t.Errorf("%s: moved %d bytes, want %d", name, res.Bytes, want)
		}
		queued := snap.Get("driver.vec_queued")
		switch name {
		case "list":
			if queued == 0 {
				t.Errorf("list: no vec-tagged transfers queued")
			}
		case "sieve", "naive":
			if queued != 0 {
				t.Errorf("%s: %d vec-tagged transfers queued, want 0", name, queued)
			}
		}
		if snap.Get("core.vec_calls") == 0 {
			t.Errorf("%s: no vectored calls counted", name)
		}
	}
}
