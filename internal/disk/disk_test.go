package disk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"ufsclust/internal/fault"
	"ufsclust/internal/sim"
)

// IO submits r and blocks the calling process until it completes: the
// synchronous form these tests drive the drive with, having no driver
// layer.
func (d *Disk) IO(p *sim.Proc, r *Request) {
	done := false
	var q sim.WaitQ
	prev := r.Done
	r.Done = func() {
		done = true
		q.WakeAll()
		if prev != nil {
			prev()
		}
	}
	d.Submit(r)
	for !done {
		p.Block(&q)
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := DefaultGeometry()
	want := int64(1520) * 8 * 64 * SectorSize
	if g.TotalBytes() != want {
		t.Fatalf("TotalBytes = %d, want %d (~398MB)", g.TotalBytes(), want)
	}
	if mb := g.TotalBytes() >> 20; mb < 380 || mb > 420 {
		t.Fatalf("capacity %dMB not ~400MB", mb)
	}
}

func TestGeometryLocateRoundTrip(t *testing.T) {
	g := ZonedGeometry()
	// Walk assorted sectors and verify monotone, consistent decoding.
	var prev CHS
	for s := int64(0); s < g.TotalSectors(); s += 977 {
		c := g.Locate(s)
		if c.Sector >= g.Zones[c.Zone].SPT {
			t.Fatalf("sector %d: in-track index %d exceeds SPT", s, c.Sector)
		}
		if s > 0 && (c.Cyl < prev.Cyl) {
			t.Fatalf("sector %d: cylinder went backwards (%d < %d)", s, c.Cyl, prev.Cyl)
		}
		prev = c
	}
	// Last sector must land on the last cylinder.
	last := g.Locate(g.TotalSectors() - 1)
	if last.Cyl != g.Cylinders()-1 {
		t.Fatalf("last sector on cyl %d, want %d", last.Cyl, g.Cylinders()-1)
	}
}

func TestGeometryLocateExhaustiveSmall(t *testing.T) {
	g, err := NewGeometry(2, 3600, Zone{Cylinders: 3, SPT: 4}, Zone{Cylinders: 2, SPT: 6})
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := int64(3*2*4 + 2*2*6)
	if g.TotalSectors() != wantTotal {
		t.Fatalf("TotalSectors = %d, want %d", g.TotalSectors(), wantTotal)
	}
	// Reconstruct the absolute sector from the decoded CHS and compare.
	for s := int64(0); s < wantTotal; s++ {
		c := g.Locate(s)
		var abs int64
		if c.Zone == 1 {
			abs = 3 * 2 * 4
			abs += int64(c.Cyl-3)*2*6 + int64(c.Head)*6 + int64(c.Sector)
		} else {
			abs = int64(c.Cyl)*2*4 + int64(c.Head)*4 + int64(c.Sector)
		}
		if abs != s {
			t.Fatalf("Locate(%d) = %+v reconstructs to %d", s, c, abs)
		}
	}
}

func TestGeometryMediaRate(t *testing.T) {
	g := DefaultGeometry()
	r := g.MediaRate(0)
	// 64 sectors * 512 B per ~16.67 ms rev => ~1.9 MB/s.
	if r < 1.8e6 || r > 2.1e6 {
		t.Fatalf("media rate = %.0f B/s, want ~1.9MB/s", r)
	}
}

func TestBlockTimeMatchesPaper(t *testing.T) {
	// The paper: "the rotational delay of one block time ... For a file
	// system with a block size of 8KB this is 4 milliseconds on typical
	// disks."
	g := DefaultGeometry()
	blockTime := g.SectorTime(0) * Time(8192/SectorSize)
	if blockTime < 3900*Microsecond || blockTime > 4400*Microsecond {
		t.Fatalf("8KB block time = %v, want ~4ms", blockTime)
	}
}

func TestImageReadWriteRoundTrip(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := New(s, "d0", DefaultParams())
	data := make([]byte, 3*SectorSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	d.WriteImage(100, data)
	got := make([]byte, 3*SectorSize)
	d.ReadImage(100, got)
	if !bytes.Equal(got, data) {
		t.Fatal("image round trip mismatch")
	}
	// Unwritten sectors read as zeros.
	zero := make([]byte, SectorSize)
	got2 := make([]byte, SectorSize)
	d.ReadImage(99, got2)
	if !bytes.Equal(got2, zero) {
		t.Fatal("unwritten sector not zero")
	}
}

func TestImageCrossesChunkBoundary(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := New(s, "d0", DefaultParams())
	data := make([]byte, 4*chunkSectors*SectorSize)
	for i := range data {
		data[i] = byte(i)
	}
	start := int64(chunkSectors - 3)
	d.WriteImage(start, data)
	got := make([]byte, len(data))
	d.ReadImage(start, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk round trip mismatch")
	}
}

func TestTimedWriteThenReadMovesData(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := New(s, "d0", DefaultParams())
	data := make([]byte, 16*SectorSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	var got []byte
	s.Spawn("io", func(p *sim.Proc) {
		d.IO(p, &Request{Sector: 500, Count: 16, Write: true, Data: data})
		got = make([]byte, len(data))
		d.IO(p, &Request{Sector: 500, Count: 16, Data: got})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("timed I/O round trip mismatch")
	}
	if d.Stats.Reads != 1 || d.Stats.Writes != 1 {
		t.Fatalf("stats = %+v, want 1 read 1 write", d.Stats)
	}
	if s.Now() == 0 {
		t.Fatal("timed I/O consumed no virtual time")
	}
}

// TestFaultsNeedNoTelemetry: the drive calls the injector itself, so a
// fault plan acts on a drive that has no telemetry attached.
func TestFaultsNeedNoTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rule  fault.Rule
		media bool // the transfer fails; otherwise power is cut
	}{
		{"media", fault.FailNthHard(1, fault.Any), true},
		{"cut", fault.CutAtIO(1), false},
	} {
		s := sim.New(1)
		t.Cleanup(s.Close)
		d := New(s, "d0", DefaultParams())
		inj, err := fault.NewInjector(s, fault.Plan{Rules: []fault.Rule{tc.rule}})
		if err != nil {
			t.Fatal(err)
		}
		d.AttachFaults(inj)
		r := &Request{Sector: 500, Count: 16, Data: make([]byte, 16*SectorSize)}
		s.Spawn("io", func(p *sim.Proc) { d.IO(p, r) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if tc.media && !errors.Is(r.Err, ErrMedia) {
			t.Errorf("%s: transfer error %v, want %v", tc.name, r.Err, ErrMedia)
		}
		if !tc.media && !inj.Crashed() {
			t.Errorf("%s: the first transfer did not cut power", tc.name)
		}
	}
}

func TestSequentialContiguousReadNearMediaRate(t *testing.T) {
	// A single large contiguous read (the clustering ideal) must run at
	// close to the media rate, losing only seek + initial latency +
	// skew-covered head switches.
	s := sim.New(1)
	t.Cleanup(s.Close)
	p := DefaultParams()
	p.TrackBuffer = false
	d := New(s, "d0", p)
	const mb = 4 << 20
	buf := make([]byte, mb)
	s.Spawn("reader", func(pr *sim.Proc) {
		// One request per 120KB cluster, back to back.
		const clu = 120 << 10
		for off := 0; off < mb; off += clu {
			n := clu
			if off+n > mb {
				n = mb - off
			}
			d.IO(pr, &Request{Sector: int64(off / SectorSize), Count: n / SectorSize, Data: buf[off : off+n]})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rate := float64(mb) / s.Now().Seconds()
	media := d.Geom().MediaRate(0)
	// Back-to-back synchronous requests with no track buffer pay a
	// rotation miss per request (command overhead lets the next sector
	// slip past); ~2/3 of media rate is the physical expectation, and
	// matches the paper's write numbers (1359 of ~1900 KB/s).
	if rate < 0.60*media {
		t.Fatalf("contiguous read rate %.0f B/s < 60%% of media rate %.0f", rate, media)
	}
	if rate > media {
		t.Fatalf("read rate %.0f exceeds media rate %.0f: impossible", rate, media)
	}
}

func TestContiguousReadWithTrackBufferNearMediaRate(t *testing.T) {
	// With the track buffer on (the paper's hardware), large contiguous
	// reads approach media rate: the buffer absorbs the per-request
	// command overhead by reading ahead on the platter.
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := New(s, "d0", DefaultParams())
	const mb = 4 << 20
	const clu = 120 << 10
	buf := make([]byte, mb)
	// Keep two requests outstanding, as cluster read-ahead does.
	pending := 0
	var q sim.WaitQ
	s.Spawn("reader", func(pr *sim.Proc) {
		for off := 0; off < mb; off += clu {
			n := clu
			if off+n > mb {
				n = mb - off
			}
			for pending >= 2 {
				pr.Block(&q)
			}
			pending++
			d.Submit(&Request{
				Sector: int64(off / SectorSize), Count: n / SectorSize,
				Data: buf[off : off+n],
				Done: func() { pending--; q.WakeAll() },
			})
		}
		for pending > 0 {
			pr.Block(&q)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rate := float64(mb) / s.Now().Seconds()
	media := d.Geom().MediaRate(0)
	if rate < 0.75*media {
		t.Fatalf("buffered pipelined read rate %.0f B/s < 75%% of media rate %.0f", rate, media)
	}
}

func TestInterleavedReadsHalfRate(t *testing.T) {
	// Blocks laid out with one-block gaps (rotdelay placement, fig. 4)
	// and read back to back without a track buffer: at most half the
	// media rate is achievable.
	s := sim.New(1)
	t.Cleanup(s.Close)
	p := DefaultParams()
	p.TrackBuffer = false
	d := New(s, "d0", p)
	const bsize = 8192
	const nblocks = 128
	buf := make([]byte, bsize)
	s.Spawn("reader", func(pr *sim.Proc) {
		for i := 0; i < nblocks; i++ {
			sector := int64(i) * 2 * (bsize / SectorSize) // gap after each block
			d.IO(pr, &Request{Sector: sector, Count: bsize / SectorSize, Data: buf})
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rate := float64(nblocks*bsize) / s.Now().Seconds()
	media := d.Geom().MediaRate(0)
	if rate > 0.55*media {
		t.Fatalf("interleaved read rate %.0f B/s > 55%% of media %.0f: gaps not modeled", rate, media)
	}
}

func TestTrackBufferSpeedsRereads(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := New(s, "d0", DefaultParams())
	buf := make([]byte, 8192)
	var first, second sim.Time
	s.Spawn("reader", func(pr *sim.Proc) {
		t0 := pr.Now()
		d.IO(pr, &Request{Sector: 0, Count: 16, Data: buf})
		first = pr.Now() - t0
		t0 = pr.Now()
		d.IO(pr, &Request{Sector: 16, Count: 16, Data: buf})
		second = pr.Now() - t0
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.BufHits != 1 || d.Stats.BufMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", d.Stats.BufHits, d.Stats.BufMisses)
	}
	if second >= first {
		t.Fatalf("buffered read (%v) not faster than mechanical (%v)", second, first)
	}
}

func TestWriteInvalidatesTrackBuffer(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := New(s, "d0", DefaultParams())
	buf := make([]byte, 8192)
	s.Spawn("io", func(pr *sim.Proc) {
		d.IO(pr, &Request{Sector: 0, Count: 16, Data: buf})              // fills buffer
		d.IO(pr, &Request{Sector: 0, Count: 16, Write: true, Data: buf}) // invalidates
		d.IO(pr, &Request{Sector: 16, Count: 16, Data: buf})             // must miss
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.BufHits != 0 {
		t.Fatalf("bufHits = %d after invalidating write, want 0", d.Stats.BufHits)
	}
}

func TestWritesAreWriteThrough(t *testing.T) {
	// Repeated writes to the same track must each pay mechanical cost;
	// the track buffer gives them no speedup.
	s := sim.New(1)
	t.Cleanup(s.Close)
	pr := DefaultParams()
	d := New(s, "d0", pr)
	buf := make([]byte, 8192)
	var times []sim.Time
	s.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			t0 := p.Now()
			d.IO(p, &Request{Sector: int64(i * 16), Count: 16, Write: true, Data: buf})
			times = append(times, p.Now()-t0)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Geom().SectorTime(0)
	for i, dt := range times {
		if dt < 16*st {
			t.Fatalf("write %d took %v, less than media transfer %v: buffered a write", i, dt, 16*st)
		}
	}
	if d.Stats.BusTime != 0 {
		t.Fatal("writes used the electronic path")
	}
}

func TestSeekTimeMonotone(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := New(s, "d0", DefaultParams())
	prev := Time(0)
	for _, dist := range []int{1, 10, 100, 1000, 1519} {
		dt := d.seekTime(0, dist)
		if dt < d.P.SeekMin || dt > d.P.SeekMax {
			t.Fatalf("seek(%d) = %v outside [%v,%v]", dist, dt, d.P.SeekMin, d.P.SeekMax)
		}
		if dt < prev {
			t.Fatalf("seek time not monotone at distance %d", dist)
		}
		prev = dt
	}
	if d.seekTime(7, 7) != 0 {
		t.Fatal("zero-distance seek should cost nothing")
	}
}

func TestRotationalPositionIsTimeDerived(t *testing.T) {
	// Reading the same sector twice back to back costs a full rotation
	// the second time (with the track buffer off): the platter has
	// moved past it.
	s := sim.New(1)
	t.Cleanup(s.Close)
	p := DefaultParams()
	p.TrackBuffer = false
	p.CmdOverhead = 0
	d := New(s, "d0", p)
	buf := make([]byte, SectorSize)
	var gap sim.Time
	s.Spawn("reader", func(pr *sim.Proc) {
		d.IO(pr, &Request{Sector: 5, Count: 1, Data: buf})
		t0 := pr.Now()
		d.IO(pr, &Request{Sector: 5, Count: 1, Data: buf})
		gap = pr.Now() - t0
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rot := d.Geom().RotationPeriod(0)
	if gap < rot-Millisecond || gap > rot+Millisecond {
		t.Fatalf("immediate re-read took %v, want ~one rotation %v", gap, rot)
	}
}

func TestMultiTrackTransferUsesSkew(t *testing.T) {
	// A transfer spanning two tracks should not lose a full rotation at
	// the boundary: skew hides the head switch.
	s := sim.New(1)
	t.Cleanup(s.Close)
	p := DefaultParams()
	p.TrackBuffer = false
	d := New(s, "d0", p)
	spt := d.Geom().Zones[0].SPT
	n := spt + spt/2 // 1.5 tracks
	buf := make([]byte, n*SectorSize)
	s.Spawn("reader", func(pr *sim.Proc) {
		d.IO(pr, &Request{Sector: 0, Count: n, Data: buf})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rot := d.Geom().RotationPeriod(0)
	// Ideal: 1.5 rotations of transfer + initial latency (< 1 rot) +
	// head switch. Anything over 3.2 rotations means the skew failed.
	if s.Now() > rot*16/5 {
		t.Fatalf("1.5-track read took %v (%.1f rotations)", s.Now(), float64(s.Now())/float64(rot))
	}
}

func TestSubmitQueuesFIFO(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := New(s, "d0", DefaultParams())
	buf1 := make([]byte, SectorSize)
	buf2 := make([]byte, SectorSize)
	var order []int
	s.Spawn("submitter", func(pr *sim.Proc) {
		d.Submit(&Request{Sector: 1000, Count: 1, Data: buf1, Done: func() { order = append(order, 1) }})
		d.Submit(&Request{Sector: 10, Count: 1, Data: buf2, Done: func() { order = append(order, 2) }})
		pr.Sleep(Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("completion order = %v, want [1 2]", order)
	}
}

func TestRequestValidation(t *testing.T) {
	s := sim.New(1)
	t.Cleanup(s.Close)
	d := New(s, "d0", DefaultParams())
	recover1 := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return
	}
	if !recover1(func() { d.Submit(&Request{Sector: -1, Count: 1, Data: make([]byte, SectorSize)}) }) {
		t.Fatal("negative sector accepted")
	}
	if !recover1(func() { d.Submit(&Request{Sector: 0, Count: 1, Data: nil}) }) {
		t.Fatal("bad data length accepted")
	}
	if !recover1(func() {
		d.Submit(&Request{Sector: d.Geom().TotalSectors(), Count: 1, Data: make([]byte, SectorSize)})
	}) {
		t.Fatal("out-of-range sector accepted")
	}
}

// Property: the image behaves like a flat byte array — random writes
// then reads return exactly what was written last.
func TestPropertyImageIsFlatArray(t *testing.T) {
	type op struct {
		Sector uint16
		Val    byte
	}
	f := func(ops []op) bool {
		s := sim.New(1)
		t.Cleanup(s.Close)
		d := New(s, "d0", DefaultParams())
		shadow := make(map[int64]byte)
		sec := make([]byte, SectorSize)
		for _, o := range ops {
			sector := int64(o.Sector)
			for i := range sec {
				sec[i] = o.Val
			}
			d.WriteImage(sector, sec)
			shadow[sector] = o.Val
		}
		got := make([]byte, SectorSize)
		for sector, val := range shadow {
			d.ReadImage(sector, got)
			for _, b := range got {
				if b != val {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: service time for any valid read is positive and bounded by
// (seek max + rotations proportional to span).
func TestPropertyServiceTimeBounded(t *testing.T) {
	f := func(sector uint32, count uint8) bool {
		s := sim.New(1)
		t.Cleanup(s.Close)
		p := DefaultParams()
		d := New(s, "d0", p)
		n := int(count%64) + 1
		sec := int64(sector) % (d.Geom().TotalSectors() - int64(n))
		buf := make([]byte, n*SectorSize)
		var took sim.Time
		s.Spawn("io", func(pr *sim.Proc) {
			t0 := pr.Now()
			d.IO(pr, &Request{Sector: sec, Count: n, Data: buf})
			took = pr.Now() - t0
		})
		if err := s.Run(); err != nil {
			return false
		}
		if took <= 0 {
			return false
		}
		rot := d.Geom().RotationPeriod(0)
		tracks := Time(n/d.Geom().Zones[0].SPT + 2)
		limit := p.SeekMax + p.CmdOverhead + (tracks+1)*rot + tracks*p.HeadSwitch
		return took <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkServiceLoop is the host cost of one 8 KB request through
// Submit, the service process (seek, rotate, transfer) and completion.
func BenchmarkServiceLoop(b *testing.B) {
	s := sim.New(1)
	defer s.Close()
	d := New(s, "d0", DefaultParams())
	buf := make([]byte, 8192)
	n := 0
	s.SpawnDaemon("io", func(p *sim.Proc) {
		for {
			d.IO(p, &Request{Sector: int64(n%1000) * 16, Count: 16, Data: buf})
			n++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for n < b.N {
		if err := s.RunUntil(s.Now() + sim.Second); err != nil {
			b.Fatal(err)
		}
	}
}
