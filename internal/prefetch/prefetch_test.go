package prefetch

import "testing"

// roomy is a Limits with nothing scarce: no clamp should ever fire.
func roomy() Limits {
	return Limits{ClusterBlocks: 8, BlockBytes: 8192, FreePages: 1 << 20, WriteHeadroom: -1}
}

func TestFixedAlwaysOneCluster(t *testing.T) {
	p := NewFixed()
	if p.Name() != "fixed" {
		t.Fatalf("Name() = %q, want fixed", p.Name())
	}
	for i := 0; i < 5; i++ {
		for _, seq := range []bool{true, false} {
			dec := p.Trigger(1, seq, roomy())
			if dec.Clusters != 1 || dec.Confidence != 0 || dec.ClampedMem || dec.ClampedSem {
				t.Fatalf("fixed Trigger(seq=%v) = %+v, want exactly one unclamped cluster", seq, dec)
			}
		}
	}
	p.Random(1)
	p.Forget(1)
	if dec := p.Trigger(1, true, Limits{}); dec.Clusters != 1 {
		t.Fatalf("fixed after Random/Forget = %+v", dec)
	}
}

func TestOffIsNil(t *testing.T) {
	if Off() != nil {
		t.Fatal("Off() must be the nil policy")
	}
}

// TestAdaptiveRamp walks the doubling schedule: arm on the first
// sequential trigger, one cluster on the second, then 2, 4, 8, and
// saturation at MaxClusters.
func TestAdaptiveRamp(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{})
	want := []int{0, 1, 2, 4, 8, 8, 8}
	for i, w := range want {
		dec := a.Trigger(7, true, roomy())
		if dec.Clusters != w {
			t.Fatalf("trigger %d: granted %d clusters, want %d", i+1, dec.Clusters, w)
		}
		if w == 0 && dec.Confidence != 1 {
			t.Fatalf("arm trigger: confidence %d, want 1", dec.Confidence)
		}
	}
	if c := a.Confidence(7); c < 2 {
		t.Fatalf("confidence %d after sustained stream, want ramped", c)
	}
}

// TestAdaptiveConfidenceCap pins the saturation: confidence stops at
// ConfidenceCap no matter how long the stream runs.
func TestAdaptiveConfidenceCap(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{ConfidenceCap: 5})
	for i := 0; i < 40; i++ {
		a.Trigger(3, true, roomy())
	}
	if c := a.Confidence(3); c != 5 {
		t.Fatalf("confidence %d, want capped at 5", c)
	}
}

// TestAdaptiveCollapse verifies a random seek zeroes the window: the
// next sequential trigger arms again instead of continuing the ramp.
func TestAdaptiveCollapse(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{})
	for i := 0; i < 4; i++ {
		a.Trigger(9, true, roomy())
	}
	a.Random(9)
	if c := a.Confidence(9); c != 0 {
		t.Fatalf("confidence %d after Random, want 0", c)
	}
	if dec := a.Trigger(9, true, roomy()); dec.Clusters != 0 {
		t.Fatalf("first trigger after collapse granted %d clusters, want 0 (arm)", dec.Clusters)
	}
	if dec := a.Trigger(9, true, roomy()); dec.Clusters != 1 {
		t.Fatalf("second trigger after collapse granted %d clusters, want 1", dec.Clusters)
	}
}

// TestAdaptiveNonSequentialNeverIssues pins the burst defence: a
// non-sequential access reaching the trigger gets nothing and does not
// advance the detector.
func TestAdaptiveNonSequentialNeverIssues(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{})
	for i := 0; i < 10; i++ {
		if dec := a.Trigger(4, false, roomy()); dec.Clusters != 0 {
			t.Fatalf("non-sequential trigger granted %d clusters", dec.Clusters)
		}
	}
	if c := a.Confidence(4); c != 0 {
		t.Fatalf("confidence %d after random triggers, want 0", c)
	}
}

// ramped returns an adaptive policy whose file ino wants MaxClusters.
func ramped(ino int32) *Adaptive {
	a := NewAdaptive(AdaptiveConfig{})
	for i := 0; i < 8; i++ {
		a.Trigger(ino, true, roomy())
	}
	return a
}

func TestAdaptiveMemClamp(t *testing.T) {
	a := ramped(1)
	// 64 free pages / MemDivisor 4 = 16 blocks = 2 clusters of 8.
	lim := roomy()
	lim.FreePages = 64
	dec := a.Trigger(1, true, lim)
	if dec.Clusters != 2 || !dec.ClampedMem {
		t.Fatalf("mem clamp: %+v, want 2 clusters with ClampedMem", dec)
	}
	// Low memory caps at one cluster even with a longer free list.
	lim.FreePages = 1 << 20
	lim.MemLow = true
	dec = a.Trigger(1, true, lim)
	if dec.Clusters != 1 || !dec.ClampedMem {
		t.Fatalf("memlow clamp: %+v, want 1 cluster with ClampedMem", dec)
	}
	// A confirmed stream never drops below the fixed baseline of one
	// cluster, even with an empty free list.
	lim.FreePages = 0
	dec = a.Trigger(1, true, lim)
	if dec.Clusters != 1 {
		t.Fatalf("empty free list: %+v, want floor of 1 cluster", dec)
	}
}

func TestAdaptiveSemClamp(t *testing.T) {
	a := ramped(2)
	lim := roomy()
	// Headroom for exactly three clusters of 8 blocks x 8 KB.
	lim.WriteHeadroom = 3 * 8 * 8192
	dec := a.Trigger(2, true, lim)
	if dec.Clusters != 3 || !dec.ClampedSem {
		t.Fatalf("sem clamp: %+v, want 3 clusters with ClampedSem", dec)
	}
	// -1 means no limit mounted: no clamp.
	lim.WriteHeadroom = -1
	dec = a.Trigger(2, true, lim)
	if dec.Clusters != 8 || dec.ClampedSem {
		t.Fatalf("no write limit: %+v, want unclamped 8", dec)
	}
}

// TestAdaptiveForget drops per-file state without touching other files.
func TestAdaptiveForget(t *testing.T) {
	a := ramped(5)
	ramped(6) // unrelated instance; a's ino 6 stays cold
	for i := 0; i < 8; i++ {
		a.Trigger(6, true, roomy())
	}
	a.Forget(5)
	if c := a.Confidence(5); c != 0 {
		t.Fatalf("confidence %d after Forget, want 0", c)
	}
	if c := a.Confidence(6); c == 0 {
		t.Fatal("Forget(5) dropped ino 6's state")
	}
	if dec := a.Trigger(5, true, roomy()); dec.Clusters != 0 {
		t.Fatalf("forgotten file's first trigger granted %d clusters, want arm", dec.Clusters)
	}
}

// TestAdaptiveDeterministic replays the same mixed call sequence on two
// instances and requires identical decisions — the policy half of the
// byte-identical replay contract.
func TestAdaptiveDeterministic(t *testing.T) {
	run := func() []Decision {
		a := NewAdaptive(AdaptiveConfig{})
		var out []Decision
		lim := roomy()
		lim.FreePages = 100
		for i := 0; i < 32; i++ {
			seq := i%5 != 0
			if i%11 == 0 {
				a.Random(2)
			}
			out = append(out, a.Trigger(2, seq, lim))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// hotTrigger is the adaptive policy's decision path as every clustered
// getpage that reaches the trigger point pays it: 64 files whose
// detectors already exist, four sequential confirmations to one
// non-sequential trigger, a collapse every 1024 calls, live Limits.
func hotTrigger(a *Adaptive, i int) {
	ino := int32(i & 63)
	if i&1023 == 1023 {
		a.Random(ino)
		return
	}
	a.Trigger(ino, i%5 != 0, Limits{ClusterBlocks: 15, BlockBytes: 8192, FreePages: 4096, WriteHeadroom: 1 << 20})
}

func BenchmarkAdaptiveTrigger(b *testing.B) {
	a := NewAdaptive(AdaptiveConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hotTrigger(a, i)
	}
}

// TestTriggerKnownInodeAllocatesNothing gates the benchmark's
// allocation count: a detector is allocated once, when a file is first
// seen, and every later decision on that inode is heap-free.
func TestTriggerKnownInodeAllocatesNothing(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{})
	i := 0
	step := func() {
		for end := i + 1024; i < end; i++ {
			hotTrigger(a, i)
		}
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("Trigger on known inodes allocates %v per 1024 calls, want 0", n)
	}
}
