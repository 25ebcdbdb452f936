package core

import (
	"bytes"
	"math"
	"testing"

	"ufsclust/internal/sim"
	"ufsclust/internal/telemetry"
	"ufsclust/internal/vec"
)

// vecStrategies enumerates the mechanisms every semantic test runs
// under: whatever the strategy picks, the bytes must come out the same.
var vecStrategies = []struct {
	name string
	s    vec.Strategy
}{
	{"naive", vec.UseNaive()},
	{"sieve", vec.UseSieve()},
	{"list", vec.UseList()},
	{"auto", vec.Auto()},
}

// newVecRig builds a clustered rig with the given vectored-I/O
// strategy installed.
func newVecRig(t *testing.T, s vec.Strategy) *rig {
	t.Helper()
	mk, cfg := clusteredOpts()
	cfg.Vec = s
	return newRig(t, mk, cfg, 240<<10)
}

// vecFill creates /v holding size patterned bytes and purges the cache,
// returning the handle and the shadow contents.
func vecFill(t *testing.T, r *rig, p *sim.Proc, size int) (*File, []byte) {
	t.Helper()
	f, err := r.eng.Create(p, "/v")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	shadow := make([]byte, size)
	pattern(shadow, 7)
	for off := 0; off < size; off += 8192 {
		end := min(off+8192, size)
		if _, err := f.Write(p, int64(off), shadow[off:end]); err != nil {
			t.Fatalf("write @%d: %v", off, err)
		}
	}
	if err := f.Purge(p); err != nil {
		t.Fatalf("purge: %v", err)
	}
	return f, shadow
}

// vecExpect extracts what a Readv of v over shadow must deliver into a
// flat buffer pre-filled with fill, and the byte count.
func vecExpect(v []vec.Ext, shadow []byte, flat int, fill byte) ([]byte, int) {
	want := bytes.Repeat([]byte{fill}, flat)
	total := 0
	var boff int64
	for _, el := range v {
		if avail := int64(len(shadow)) - el.Off; avail > 0 && el.Len > 0 {
			n := min(el.Len, avail)
			copy(want[boff:boff+n], shadow[el.Off:el.Off+n])
			total += int(n)
		}
		boff += el.Len
	}
	return want, total
}

func TestReadvEdgeCases(t *testing.T) {
	const size = 200*1024 + 300 // EOF off any block boundary
	cases := []struct {
		name string
		v    []vec.Ext
	}{
		{"empty", nil},
		{"all_zero_length", []vec.Ext{{Off: 0, Len: 0}, {Off: 8192, Len: 0}}},
		{"zero_length_mixed", []vec.Ext{{Off: 0, Len: 0}, {Off: 100, Len: 64}, {Off: 9000, Len: 0}, {Off: 50000, Len: 128}}},
		{"unsorted", []vec.Ext{{Off: 90000, Len: 4000}, {Off: 0, Len: 4000}, {Off: 40000, Len: 4000}}},
		{"adjacent_merge", []vec.Ext{{Off: 8192, Len: 8192}, {Off: 0, Len: 8192}, {Off: 16384, Len: 8192}}},
		{"overlapping", []vec.Ext{{Off: 1000, Len: 9000}, {Off: 4000, Len: 9000}, {Off: 4000, Len: 100}}},
		{"sub_block_gap", []vec.Ext{{Off: 0, Len: 100}, {Off: 8000, Len: 400}}},
		{"eof_straddle", []vec.Ext{{Off: size - 5000, Len: 9000}, {Off: 0, Len: 64}}},
		{"past_eof", []vec.Ext{{Off: int64(size) + 8192, Len: 4096}, {Off: 0, Len: 64}}},
		{"sparse", []vec.Ext{{Off: 0, Len: 1024}, {Off: 65536, Len: 1024}, {Off: 131072, Len: 1024}}},
	}
	for _, st := range vecStrategies {
		for _, tc := range cases {
			t.Run(st.name+"/"+tc.name, func(t *testing.T) {
				r := newVecRig(t, st.s)
				r.run(t, func(p *sim.Proc) {
					f, shadow := vecFill(t, r, p, size)
					var flat int64
					for _, el := range tc.v {
						flat += el.Len
					}
					buf := bytes.Repeat([]byte{0xEE}, int(flat))
					n, err := f.Readv(p, tc.v, buf)
					if err != nil {
						t.Errorf("readv: %v", err)
						return
					}
					want, wantN := vecExpect(tc.v, shadow, int(flat), 0xEE)
					if n != wantN {
						t.Errorf("readv = %d bytes, want %d", n, wantN)
					}
					if !bytes.Equal(buf, want) {
						t.Error("readv contents mismatch")
					}
				})
			})
		}
	}
}

func TestReadvHoles(t *testing.T) {
	for _, st := range vecStrategies {
		t.Run(st.name, func(t *testing.T) {
			r := newVecRig(t, st.s)
			r.run(t, func(p *sim.Proc) {
				f, err := r.eng.Create(p, "/holey")
				if err != nil {
					t.Fatalf("create: %v", err)
				}
				// Data at block 0 and block 8; blocks 1..7 are a hole.
				head := make([]byte, 8192)
				tail := make([]byte, 8192)
				pattern(head, 1)
				pattern(tail, 2)
				f.Write(p, 0, head)
				f.Write(p, 8*8192, tail)
				if err := f.Purge(p); err != nil {
					t.Fatalf("purge: %v", err)
				}
				v := []vec.Ext{
					{Off: 4000, Len: 8192},     // straddles data → hole
					{Off: 3 * 8192, Len: 4096}, // pure hole
					{Off: 8*8192 + 100, Len: 2000},
				}
				buf := bytes.Repeat([]byte{0xEE}, 8192+4096+2000)
				n, err := f.Readv(p, v, buf)
				if err != nil {
					t.Errorf("readv: %v", err)
					return
				}
				if n != len(buf) {
					t.Errorf("readv = %d, want %d", n, len(buf))
				}
				want := make([]byte, len(buf))
				copy(want, head[4000:]) // 4192 data bytes, rest zeros
				copy(want[8192+4096:], tail[100:2100])
				if !bytes.Equal(buf, want) {
					t.Error("hole read mismatch: holes must deliver zeros")
				}
			})
		})
	}
}

func TestReadvValidation(t *testing.T) {
	r := newVecRig(t, vec.Auto())
	r.run(t, func(p *sim.Proc) {
		f, _ := vecFill(t, r, p, 16384)
		if _, err := f.Readv(p, []vec.Ext{{Off: -1, Len: 8}}, make([]byte, 8)); err == nil {
			t.Error("negative offset accepted")
		}
		if _, err := f.Readv(p, []vec.Ext{{Off: 0, Len: -8}}, make([]byte, 8)); err == nil {
			t.Error("negative length accepted")
		}
		if _, err := f.Readv(p, []vec.Ext{{Off: 0, Len: 64}}, make([]byte, 32)); err == nil {
			t.Error("short buffer accepted")
		}
		if _, err := f.Writev(p, []vec.Ext{{Off: 0, Len: 64}}, make([]byte, 32)); err == nil {
			t.Error("short writev buffer accepted")
		}
	})
}

// TestVecOverflowingElementIsAnError: an element whose end does not fit
// an int64 used to wrap the envelope negative and panic in make under
// data sieving. Every strategy must refuse it, reading and writing.
func TestVecOverflowingElementIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    []vec.Ext
	}{
		{"end", []vec.Ext{{Off: 0, Len: 8}, {Off: math.MaxInt64 - 4, Len: 8}}},
		{"payload", []vec.Ext{{Off: 0, Len: math.MaxInt64}, {Off: 0, Len: math.MaxInt64}}},
	} {
		v := tc.v
		for _, st := range vecStrategies {
			t.Run(st.name+"/"+tc.name, func(t *testing.T) {
				r := newVecRig(t, st.s)
				r.run(t, func(p *sim.Proc) {
					f, _ := vecFill(t, r, p, 16384)
					if n, err := f.Readv(p, v, make([]byte, 16)); err == nil {
						t.Errorf("readv %v = %d bytes, no error", v, n)
					}
					if n, err := f.Writev(p, v, make([]byte, 16)); err == nil {
						t.Errorf("writev %v = %d bytes, no error", v, n)
					}
				})
			})
		}
	}
}

func TestWritevEdgeCases(t *testing.T) {
	const size = 96 * 1024
	cases := []struct {
		name string
		v    []vec.Ext
	}{
		{"empty", nil},
		{"unsorted", []vec.Ext{{Off: 70000, Len: 3000}, {Off: 100, Len: 3000}, {Off: 30000, Len: 3000}}},
		{"adjacent_merge", []vec.Ext{{Off: 8192, Len: 8192}, {Off: 0, Len: 8192}}},
		{"overlapping", []vec.Ext{{Off: 1000, Len: 9000}, {Off: 4000, Len: 9000}}},
		{"same_offset_twice", []vec.Ext{{Off: 2000, Len: 500}, {Off: 2000, Len: 500}}},
		{"extend_past_eof", []vec.Ext{{Off: size - 100, Len: 300}, {Off: int64(size) + 5000, Len: 700}}},
		{"sub_block_gap", []vec.Ext{{Off: 0, Len: 100}, {Off: 8000, Len: 400}}},
	}
	for _, st := range vecStrategies {
		for _, tc := range cases {
			t.Run(st.name+"/"+tc.name, func(t *testing.T) {
				r := newVecRig(t, st.s)
				r.run(t, func(p *sim.Proc) {
					f, shadow := vecFill(t, r, p, size)
					var flat int64
					for _, el := range tc.v {
						flat += el.Len
					}
					data := make([]byte, flat)
					pattern(data, 99)
					n, err := f.Writev(p, tc.v, data)
					if err != nil {
						t.Errorf("writev: %v", err)
						return
					}
					if n != int(flat) {
						t.Errorf("writev = %d, want payload %d", n, flat)
					}
					// Apply the vector to the shadow in vector order:
					// later elements win overlaps, extensions grow it.
					var boff int64
					for _, el := range tc.v {
						for int64(len(shadow)) < el.End() {
							shadow = append(shadow, 0)
						}
						copy(shadow[el.Off:el.End()], data[boff:boff+el.Len])
						boff += el.Len
					}
					if got := f.Size(); got < int64(len(shadow)) {
						t.Errorf("size = %d, want >= %d", got, len(shadow))
					}
					got := make([]byte, len(shadow))
					for off := 0; off < len(shadow); off += 8192 {
						end := min(off+8192, len(shadow))
						if _, err := f.Read(p, int64(off), got[off:end]); err != nil {
							t.Errorf("read-back @%d: %v", off, err)
							return
						}
					}
					if !bytes.Equal(got, shadow) {
						t.Error("writev read-back mismatch")
					}
				})
			})
		}
	}
}

// TestVecSingleElementDegeneration pins the degeneration contract at
// the engine level: a one-element vector goes down the scalar path with
// no vectored accounting and no vec_io event. (The byte-for-byte golden
// replay against the pre-vec fixtures lives in internal/iobench.)
func TestVecSingleElementDegeneration(t *testing.T) {
	r := newVecRig(t, vec.Auto())
	tel := telemetry.New()
	r.eng.AttachTelemetry(tel)
	var vecEvents int
	tel.Bus.Subscribe(func(ev telemetry.Event) {
		if ev.Kind == telemetry.EvVecIO {
			vecEvents++
		}
	})
	r.run(t, func(p *sim.Proc) {
		f, shadow := vecFill(t, r, p, 64<<10)
		buf := make([]byte, 8192)
		if _, err := f.Readv(p, []vec.Ext{{Off: 8192, Len: 8192}}, buf); err != nil {
			t.Errorf("readv: %v", err)
			return
		}
		if !bytes.Equal(buf, shadow[8192:16384]) {
			t.Error("single-element readv mismatch")
		}
		// Zero-length padding must not disturb the degeneration.
		if _, err := f.Readv(p, []vec.Ext{{Off: 0, Len: 0}, {Off: 0, Len: 8192}, {Off: 99, Len: 0}}, buf); err != nil {
			t.Errorf("padded readv: %v", err)
			return
		}
		if !bytes.Equal(buf, shadow[:8192]) {
			t.Error("padded single-element readv mismatch")
		}
		data := make([]byte, 4096)
		pattern(data, 5)
		if _, err := f.Writev(p, []vec.Ext{{Off: 1000, Len: 4096}}, data); err != nil {
			t.Errorf("writev: %v", err)
		}
	})
	if r.eng.Stats.VecCalls != 0 || r.eng.Stats.VecRuns != 0 {
		t.Errorf("single-element vectors reached the vec path: %+v", r.eng.Stats)
	}
	if vecEvents != 0 {
		t.Errorf("%d vec_io events from single-element vectors, want 0", vecEvents)
	}
	if r.dr.Stats.VecQueued != 0 {
		t.Errorf("driver saw %d vec-tagged bufs from scalar paths, want 0", r.dr.Stats.VecQueued)
	}
}

// TestVecAccounting checks the new counters move as designed: runs and
// coalesced elements from the planner, sieve_waste only under sieving,
// driver vec_queued only under list reads.
func TestVecAccounting(t *testing.T) {
	v := []vec.Ext{{Off: 0, Len: 1024}, {Off: 1024, Len: 1024}, {Off: 65536, Len: 1024}}
	t.Run("list", func(t *testing.T) {
		r := newVecRig(t, vec.UseList())
		r.run(t, func(p *sim.Proc) {
			f, _ := vecFill(t, r, p, 128<<10)
			if _, err := f.Readv(p, v, make([]byte, 3*1024)); err != nil {
				t.Errorf("readv: %v", err)
			}
		})
		st := r.eng.Stats
		if st.VecCalls != 1 || st.VecRuns != 2 || st.VecCoalesced != 1 {
			t.Errorf("calls/runs/coalesced = %d/%d/%d, want 1/2/1", st.VecCalls, st.VecRuns, st.VecCoalesced)
		}
		if st.SieveWaste != 0 {
			t.Errorf("list read recorded sieve_waste %d", st.SieveWaste)
		}
		if r.dr.Stats.VecQueued == 0 {
			t.Error("list read queued no vec-tagged transfers")
		}
	})
	t.Run("sieve", func(t *testing.T) {
		r := newVecRig(t, vec.UseSieve())
		r.run(t, func(p *sim.Proc) {
			f, _ := vecFill(t, r, p, 128<<10)
			if _, err := f.Readv(p, v, make([]byte, 3*1024)); err != nil {
				t.Errorf("readv: %v", err)
			}
		})
		st := r.eng.Stats
		// Envelope 0..66560 carries 66560-3072 gap bytes.
		if want := int64(66560 - 3072); st.SieveWaste != want {
			t.Errorf("sieve_waste = %d, want %d", st.SieveWaste, want)
		}
		if r.dr.Stats.VecQueued != 0 {
			t.Errorf("sieve tagged %d driver bufs, want 0 (flows through the scalar read)", r.dr.Stats.VecQueued)
		}
	})
}

// vecDeterminismWorkload drives Readv/Writev under the auto strategy
// with seeded-random vectors: the vectored extension of the same-seed
// replay gate.
func vecDeterminismWorkload(t *testing.T, r *rig) {
	t.Helper()
	r.run(t, func(p *sim.Proc) {
		rnd := r.s.Rand
		f, err := r.eng.Create(p, "/vd")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		base := make([]byte, 256<<10)
		pattern(base, 3)
		for off := 0; off < len(base); off += 8192 {
			if _, err := f.Write(p, int64(off), base[off:off+8192]); err != nil {
				t.Errorf("write @%d: %v", off, err)
				return
			}
		}
		if err := f.Purge(p); err != nil {
			t.Errorf("purge: %v", err)
			return
		}
		for round := 0; round < 6; round++ {
			nv := 2 + rnd.Intn(6)
			v := make([]vec.Ext, nv)
			var flat int64
			for i := range v {
				v[i] = vec.Ext{Off: int64(rnd.Intn(32)) * 8192, Len: int64(1 + rnd.Intn(8192))}
				flat += v[i].Len
			}
			buf := make([]byte, flat)
			if round%2 == 0 {
				if _, err := f.Readv(p, v, buf); err != nil {
					t.Errorf("readv round %d: %v", round, err)
					return
				}
			} else {
				pattern(buf, int64(round))
				if _, err := f.Writev(p, v, buf); err != nil {
					t.Errorf("writev round %d: %v", round, err)
					return
				}
			}
		}
		if err := f.Fsync(p); err != nil {
			t.Errorf("fsync: %v", err)
		}
	})
}

// vecTraceRun is traceRun for the vectored workload (no offline check).
func vecTraceRun(t *testing.T) replay {
	t.Helper()
	mk, cfg := clusteredOpts()
	cfg.Vec = vec.Auto()
	r := newRig(t, mk, cfg, 240<<10)
	var tw bytes.Buffer
	r.s.TraceW = &tw
	vecDeterminismWorkload(t, r)
	return replay{trace: tw.String(), stats: r.eng.Stats, now: r.s.Now()}
}

// TestVecSameSeedReplaysByteIdentical extends the determinism gate to
// vectored I/O: the run-merge sort, the strategy pick, and both
// mechanisms' issue orders must be pure functions of the seed.
func TestVecSameSeedReplaysByteIdentical(t *testing.T) {
	r1, r2 := vecTraceRun(t), vecTraceRun(t)
	requireSameReplay(t, r1, r2)
	if r1.stats.VecCalls == 0 {
		t.Error("vectored workload never reached the vec path")
	}
}
