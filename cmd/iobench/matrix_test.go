package main

import (
	"bytes"
	"os"
	"testing"
)

// TestMatrixMatchesCommitted regenerates the whole matrix report in
// memory and requires byte equality with the committed
// BENCH_iobench.json. Every number in it is virtual — a pure function
// of the code — so any difference is a behaviour change: either explain
// it and refresh the file (`make bench`, or `go run ./cmd/iobench
// -matrix BENCH_iobench.json`), or fix it.
func TestMatrixMatchesCommitted(t *testing.T) {
	got, err := matrixJSON(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_iobench.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the regenerated matrix differs from BENCH_iobench.json; rewrite it with -matrix and read the git diff")
	}
}
