package vec

import (
	"encoding/binary"
	"math"
	"testing"
)

// encodeVec packs a vector as the fuzz input FuzzNormalize decodes:
// 16 bytes per element, offset then length, little-endian.
func encodeVec(v []Ext) []byte {
	out := make([]byte, 0, 16*len(v))
	for _, e := range v {
		out = binary.LittleEndian.AppendUint64(out, uint64(e.Off))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.Len))
	}
	return out
}

// FuzzNormalize: whatever the vector, Normalize returns an error or a
// plan Readv/Writev can run — runs sorted, positive, separated by real
// gaps, each covering exactly its members; payload and span consistent
// with the elements — and never panics.
func FuzzNormalize(f *testing.F) {
	for _, v := range [][]Ext{
		nil,
		{{Off: 32, Len: 16}, {Off: 0, Len: 16}, {Off: 16, Len: 16}, {Off: 64, Len: 16}},
		{{Off: 100, Len: 0}, {Off: 0, Len: 16}, {Off: 8, Len: 4}},
		{{Off: 0, Len: 8}, {Off: math.MaxInt64 - 4, Len: 8}},         // end overflows
		{{Off: 0, Len: math.MaxInt64}, {Off: 0, Len: math.MaxInt64}}, // payload overflows
		{{Off: math.MaxInt64 - 8, Len: 8}, {Off: -1, Len: 1}},
	} {
		f.Add(encodeVec(v))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := make([]Ext, len(raw)/16)
		for i := range v {
			v[i].Off = int64(binary.LittleEndian.Uint64(raw[16*i:]))
			v[i].Len = int64(binary.LittleEndian.Uint64(raw[16*i+8:]))
		}
		n, err := Normalize(v)
		if err != nil {
			return
		}
		var payload int64
		run := make(map[int]int) // element index → run index
		for i, r := range n.Runs {
			if r.Len <= 0 || r.Off < 0 || r.End() < r.Off {
				t.Fatalf("run %d = %+v", i, r)
			}
			if i > 0 && r.Off <= n.Runs[i-1].End() {
				t.Fatalf("runs %d and %d touch: %+v %+v", i-1, i, n.Runs[i-1], r)
			}
			for _, m := range r.Members {
				run[m] = i
			}
		}
		for i, e := range v {
			payload += e.Len
			ri, ok := run[i]
			if (e.Len > 0) != ok {
				t.Fatalf("element %d %+v: in a run %v", i, e, ok)
			}
			if ok && (e.Off < n.Runs[ri].Off || e.End() > n.Runs[ri].End()) {
				t.Fatalf("element %d %+v outside its run %+v", i, e, n.Runs[ri])
			}
		}
		if payload != n.Payload || n.Span < 0 {
			t.Fatalf("payload %d (want %d), span %d", n.Payload, payload, n.Span)
		}
		if len(n.Runs) > 0 && (n.Lo != n.Runs[0].Off || n.Lo+n.Span != n.Runs[len(n.Runs)-1].End()) {
			t.Fatalf("envelope [%d,+%d) does not cover runs %+v", n.Lo, n.Span, n.Runs)
		}
		if d := n.Density(); d < 0 || d > 1 {
			t.Fatalf("density %v", d)
		}
	})
}
