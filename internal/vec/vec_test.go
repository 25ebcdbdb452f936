package vec

import (
	"reflect"
	"testing"
)

func TestNormalizeEmpty(t *testing.T) {
	n, err := Normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Runs) != 0 || n.Payload != 0 || n.Span != 0 || n.Coalesced != 0 {
		t.Fatalf("empty vector normalized to %+v", n)
	}
	if d := n.Density(); d != 0 {
		t.Fatalf("empty density = %v, want 0", d)
	}
}

func TestNormalizeRejectsNegative(t *testing.T) {
	if _, err := Normalize([]Ext{{Off: -1, Len: 8}}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := Normalize([]Ext{{Off: 0, Len: -8}}); err == nil {
		t.Error("negative length accepted")
	}
}

func TestNormalizeZeroLengthElements(t *testing.T) {
	n, err := Normalize([]Ext{{Off: 100, Len: 0}, {Off: 0, Len: 16}, {Off: 50, Len: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Runs) != 1 || n.Runs[0].Off != 0 || n.Runs[0].Len != 16 {
		t.Fatalf("runs = %+v, want one 16-byte run at 0", n.Runs)
	}
	if !reflect.DeepEqual(n.Runs[0].Members, []int{1}) {
		t.Fatalf("members = %v, want [1]: zero-length elements join no run", n.Runs[0].Members)
	}
	if n.Payload != 16 || n.Span != 16 {
		t.Fatalf("payload/span = %d/%d, want 16/16", n.Payload, n.Span)
	}
}

func TestNormalizeSortsAndMerges(t *testing.T) {
	// Unsorted input: [32,48) [0,16) [16,32) [64,80) — first three chain
	// into one run (adjacent), the last stands alone across a gap.
	n, err := Normalize([]Ext{
		{Off: 32, Len: 16}, {Off: 0, Len: 16}, {Off: 16, Len: 16}, {Off: 64, Len: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Runs) != 2 {
		t.Fatalf("got %d runs, want 2: %+v", len(n.Runs), n.Runs)
	}
	r0, r1 := n.Runs[0], n.Runs[1]
	if r0.Off != 0 || r0.Len != 48 || !reflect.DeepEqual(r0.Members, []int{0, 1, 2}) {
		t.Fatalf("run 0 = %+v, want [0,48) members [0 1 2]", r0)
	}
	if r1.Off != 64 || r1.Len != 16 || !reflect.DeepEqual(r1.Members, []int{3}) {
		t.Fatalf("run 1 = %+v, want [64,80) members [3]", r1)
	}
	if n.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", n.Coalesced)
	}
	if n.Lo != 0 || n.Span != 80 {
		t.Fatalf("lo/span = %d/%d, want 0/80", n.Lo, n.Span)
	}
}

func TestNormalizeOverlap(t *testing.T) {
	// [0,24) and [16,40) overlap; the merged run must cover the union
	// and payload counts both elements in full.
	n, err := Normalize([]Ext{{Off: 16, Len: 24}, {Off: 0, Len: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Runs) != 1 || n.Runs[0].Off != 0 || n.Runs[0].Len != 40 {
		t.Fatalf("runs = %+v, want one [0,40) run", n.Runs)
	}
	if !reflect.DeepEqual(n.Runs[0].Members, []int{0, 1}) {
		t.Fatalf("members = %v, want vector order [0 1]", n.Runs[0].Members)
	}
	if n.Payload != 48 || n.Span != 40 {
		t.Fatalf("payload/span = %d/%d, want 48/40", n.Payload, n.Span)
	}
	if d := n.Density(); d != 1 {
		t.Fatalf("density = %v, want clamped to 1", d)
	}
	// A contained element must not extend the run.
	n, err = Normalize([]Ext{{Off: 0, Len: 40}, {Off: 8, Len: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Runs) != 1 || n.Runs[0].Len != 40 {
		t.Fatalf("contained element grew the run: %+v", n.Runs)
	}
}

func TestNormalizeStableOnEqualOffsets(t *testing.T) {
	// Two elements at the same offset: members stay in vector order, so
	// a write overlay applies element 1 over element 0.
	n, err := Normalize([]Ext{{Off: 8, Len: 8}, {Off: 8, Len: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Runs) != 1 || !reflect.DeepEqual(n.Runs[0].Members, []int{0, 1}) {
		t.Fatalf("runs = %+v, want one run with members [0 1]", n.Runs)
	}
}

func TestNormalizeDeterministic(t *testing.T) {
	v := []Ext{{96, 8}, {0, 8}, {8, 8}, {96, 16}, {40, 0}, {32, 8}}
	a, err := Normalize(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		b, err := Normalize(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("normalization not deterministic:\n%+v\n%+v", a, b)
		}
	}
}

func TestAutoPick(t *testing.T) {
	s := Auto()
	dense, _ := Normalize([]Ext{{0, 8192}, {16384, 8192}})   // density 2/3
	sparse, _ := Normalize([]Ext{{0, 8192}, {131072, 8192}}) // density ~0.12
	single, _ := Normalize([]Ext{{0, 8192}, {8192, 8192}})   // one merged run
	if m := s.Pick(dense, false); m != Sieve {
		t.Errorf("dense pick = %v, want sieve", m)
	}
	if m := s.Pick(sparse, false); m != List {
		t.Errorf("sparse pick = %v, want list", m)
	}
	if m := s.Pick(single, false); m != Sieve {
		t.Errorf("single-run read pick = %v, want sieve (envelope is the payload)", m)
	}
	if m := s.Pick(single, true); m != List {
		t.Errorf("single-run write pick = %v, want list (nothing to read-modify-write)", m)
	}
	if s.Name() != "auto" {
		t.Errorf("name = %q", s.Name())
	}
}

func TestFixedStrategies(t *testing.T) {
	n, _ := Normalize([]Ext{{0, 8}, {64, 8}})
	for _, tc := range []struct {
		s    Strategy
		want Method
		name string
	}{
		{UseNaive(), Naive, "naive"},
		{UseSieve(), Sieve, "sieve"},
		{UseList(), List, "list"},
	} {
		if m := tc.s.Pick(n, true); m != tc.want {
			t.Errorf("%s picked %v", tc.name, m)
		}
		if tc.s.Name() != tc.name {
			t.Errorf("name = %q, want %q", tc.s.Name(), tc.name)
		}
	}
}

func TestMethodString(t *testing.T) {
	if Naive.String() != "naive" || Sieve.String() != "sieve" || List.String() != "list" {
		t.Error("method wire names changed")
	}
	if Method(99).String() != "unknown" {
		t.Error("out-of-range method must stringify as unknown")
	}
}
