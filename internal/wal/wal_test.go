package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ufsclust/internal/detsort"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
)

const (
	testBase  = 4096 // log region start sector; home addresses stay below
	testBlock = 8192
)

// blockSec is the per-block sector footprint at the test block size.
const blockSec = testBlock / disk.SectorSize

// walRig is a raw log on a bare disk — the journal is file-system
// agnostic, so the tests drive Stage/Begin/End directly.
type walRig struct {
	s  *sim.Sim
	d  *disk.Disk
	dr *driver.Driver
	l  *Log
}

func newWalRig(t testing.TB, logBlocks int, cfg Config) *walRig {
	t.Helper()
	s := sim.New(1)
	t.Cleanup(s.Close)
	p := disk.DefaultParams()
	p.Geom = disk.UniformGeometry(64, 8, 64, 3600) // 16 MB
	d := disk.New(s, "d0", p)
	dr := driver.New(s, d, nil, driver.DefaultConfig())
	Format(d, testBase)
	l, err := New(s, dr, testBase, int64(logBlocks)*blockSec, testBlock, cfg)
	if err != nil {
		t.Fatalf("wal.New: %v", err)
	}
	return &walRig{s: s, d: d, dr: dr, l: l}
}

func (r *walRig) run(t testing.TB, fn func(p *sim.Proc)) {
	t.Helper()
	r.s.Spawn("test", fn)
	if err := r.s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// commit stages the given (sector, fill) pairs in one transaction, in
// sector order so the log layout is identical run to run.
func (r *walRig) commit(t testing.TB, blocks map[int64]byte) {
	t.Helper()
	r.run(t, func(p *sim.Proc) {
		r.l.Begin(p)
		for _, sector := range detsort.Keys(blocks) {
			r.l.Stage(sector, mkBlock(blocks[sector]))
		}
		if err := r.l.End(p); err != nil {
			t.Errorf("End: %v", err)
		}
	})
}

func mkBlock(fill byte) []byte {
	b := make([]byte, testBlock)
	for i := range b {
		b[i] = fill ^ byte(i)
	}
	return b
}

func (r *walRig) homeBlock(sector int64) []byte {
	buf := make([]byte, testBlock)
	r.d.ReadImage(sector, buf)
	return buf
}

func TestFormatNewRoundTrip(t *testing.T) {
	r := newWalRig(t, 64, Config{})
	if r.l.epoch != 1 {
		t.Fatalf("fresh log epoch = %d, want 1", r.l.epoch)
	}
	// An unformatted region is refused.
	if _, err := New(r.s, r.dr, testBase+8192, 64*blockSec, testBlock, Config{}); err == nil {
		t.Fatal("New accepted an unformatted region")
	}
	// So is a region too small to hold one transaction.
	if _, err := New(r.s, r.dr, testBase, 4, testBlock, Config{}); err == nil {
		t.Fatal("New accepted a too-small region")
	}
}

func TestCommitIsWriteAhead(t *testing.T) {
	r := newWalRig(t, 64, Config{})
	r.commit(t, map[int64]byte{100: 0xA1, 100 + blockSec: 0xA2})
	if r.l.Commits != 1 || r.l.CommitBlocks != 2 {
		t.Fatalf("commits=%d blocks=%d, want 1 and 2", r.l.Commits, r.l.CommitBlocks)
	}
	// Write-ahead: the home copies are untouched until checkpoint...
	if bytes.Equal(r.homeBlock(100), mkBlock(0xA1)) {
		t.Fatal("commit wrote the home copy in place")
	}
	// ...but Peek serves the committed image, so readers never see the
	// stale home copy.
	if !bytes.Equal(r.l.Peek(100), mkBlock(0xA1)) {
		t.Fatal("Peek does not serve the committed image")
	}
	// Recovery replays it home.
	rep, err := Recover(r.d, testBase, r.l.sectors, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Txns != 1 || rep.Records != 2 || rep.TornTail {
		t.Fatalf("recover: %v", rep)
	}
	if !bytes.Equal(r.homeBlock(100), mkBlock(0xA1)) || !bytes.Equal(r.homeBlock(100+blockSec), mkBlock(0xA2)) {
		t.Fatal("replay did not restore the committed blocks")
	}
	if rep.SectorsRead > rep.LogSectors {
		t.Fatalf("recovery read %d sectors from a %d-sector log", rep.SectorsRead, rep.LogSectors)
	}
	// The replay reset the log: a second recovery finds nothing.
	rep2, err := Recover(r.d, testBase, r.l.sectors, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Txns != 0 || rep2.TornTail {
		t.Fatalf("second recover not empty: %v", rep2)
	}
}

// TestRecoverReplaysHomesOnBothSidesOfTheLog: the log may sit anywhere
// on the device — ufs puts it in group 0, with metadata homed below it
// and above it — so recovery replays a committed record wherever it is
// homed outside the region, up against either edge of it and in the
// device's last block included.
func TestRecoverReplaysHomesOnBothSidesOfTheLog(t *testing.T) {
	r := newWalRig(t, 64, Config{})
	end, dev := testBase+r.l.sectors, r.d.Geom().TotalBytes()/disk.SectorSize
	homes := map[int64]byte{100: 0xD1, testBase - blockSec: 0xD2, end: 0xD3, end + 1000: 0xD4, dev - blockSec: 0xD5}
	r.commit(t, homes)
	// A power cut now leaves the transaction in the log and every home
	// copy stale: nothing has been checkpointed.
	for _, h := range detsort.Keys(homes) {
		if !bytes.Equal(r.homeBlock(h), make([]byte, testBlock)) {
			t.Fatalf("home block at %d written before any checkpoint", h)
		}
	}
	g := &guardDev{Device: r.d, base: testBase, sectors: r.l.sectors}
	rep, err := Recover(g, testBase, r.l.sectors, testBlock)
	if err != nil || g.bad != "" {
		t.Fatalf("recover: %v, %s", err, g.bad)
	}
	if rep.Txns != 1 || rep.Records != len(homes) || rep.TornTail {
		t.Fatalf("recover: %v, want one transaction of %d records", rep, len(homes))
	}
	for _, h := range detsort.Keys(homes) {
		if !bytes.Equal(r.homeBlock(h), mkBlock(homes[h])) {
			t.Errorf("home block at %d not replayed", h)
		}
	}
}

// TestRecoverStopsAtRunsIntoTheLogOrOffTheDevice: a committed record
// homed inside the log, across either of its edges, or past the
// device's last sector is corruption. The scan replays the transactions
// before it and ends there as a torn tail, writing nothing into the
// region or off the device.
func TestRecoverStopsAtRunsIntoTheLogOrOffTheDevice(t *testing.T) {
	for _, tc := range []struct {
		name string
		home func(end, dev int64) int64
	}{
		{"InsideTheLog", func(_, _ int64) int64 { return testBase + 8 }},
		{"StraddlingItsStart", func(_, _ int64) int64 { return testBase - blockSec + 1 }},
		{"StraddlingItsEnd", func(end, _ int64) int64 { return end - 1 }},
		{"PastTheDevice", func(_, dev int64) int64 { return dev - blockSec + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newWalRig(t, 64, Config{})
			home := tc.home(testBase+r.l.sectors, r.d.Geom().TotalBytes()/disk.SectorSize)
			r.commit(t, map[int64]byte{100: 0xE1})
			r.commit(t, map[int64]byte{home: 0xE2})
			g := &guardDev{Device: r.d, base: testBase, sectors: r.l.sectors}
			rep, err := Recover(g, testBase, r.l.sectors, testBlock)
			if err != nil || g.bad != "" {
				t.Fatalf("recover: %v, %s", err, g.bad)
			}
			if rep.Txns != 1 || !rep.TornTail {
				t.Fatalf("record at sector %d: %v, want the first transaction and a torn tail", home, rep)
			}
			if !bytes.Equal(r.homeBlock(100), mkBlock(0xE1)) {
				t.Fatal("the transaction before the bad record was not replayed")
			}
		})
	}
}

func TestStageDedupsWithinTransaction(t *testing.T) {
	r := newWalRig(t, 64, Config{})
	r.run(t, func(p *sim.Proc) {
		r.l.Begin(p)
		r.l.Stage(100, mkBlock(0x01))
		r.l.Stage(100, mkBlock(0x02)) // second image of the same block wins
		if err := r.l.End(p); err != nil {
			t.Errorf("End: %v", err)
		}
	})
	if r.l.CommitBlocks != 1 {
		t.Fatalf("CommitBlocks = %d, want 1", r.l.CommitBlocks)
	}
	if !bytes.Equal(r.l.Peek(100), mkBlock(0x02)) {
		t.Fatal("dedup kept the older image")
	}
}

func TestEmptyCommit(t *testing.T) {
	r := newWalRig(t, 64, Config{})
	r.run(t, func(p *sim.Proc) {
		r.l.Begin(p)
		if err := r.l.End(p); err != nil {
			t.Errorf("End: %v", err)
		}
	})
	if r.l.Commits != 0 || r.l.EmptyCommits != 1 {
		t.Fatalf("commits=%d empty=%d, want 0 and 1", r.l.Commits, r.l.EmptyCommits)
	}
	if r.l.head != 1 {
		t.Fatal("empty commit consumed log space")
	}
}

func TestNestedFramesCommitOnce(t *testing.T) {
	// Remove calling Truncate opens a nested frame on the same process;
	// only the outermost End commits.
	r := newWalRig(t, 64, Config{})
	r.run(t, func(p *sim.Proc) {
		r.l.Begin(p)
		r.l.Stage(100, mkBlock(0x01))
		r.l.Begin(p) // nested
		r.l.Stage(100+blockSec, mkBlock(0x02))
		if err := r.l.End(p); err != nil { // closes the nested frame: no commit
			t.Errorf("nested End: %v", err)
		}
		if r.l.Commits != 0 {
			t.Error("nested End committed")
		}
		if err := r.l.End(p); err != nil {
			t.Errorf("End: %v", err)
		}
	})
	if r.l.Commits != 1 || r.l.CommitBlocks != 2 {
		t.Fatalf("commits=%d blocks=%d, want 1 and 2", r.l.Commits, r.l.CommitBlocks)
	}
}

func TestGroupCommitAcrossProcesses(t *testing.T) {
	// Two processes with overlapping frames share one commit; the one
	// that closes first blocks until the covering commit lands.
	r := newWalRig(t, 64, Config{})
	var firstDone, secondDone bool
	r.s.Spawn("first", func(p *sim.Proc) {
		r.l.Begin(p)
		r.l.Stage(100, mkBlock(0x01))
		p.Sleep(sim.Millisecond)
		if err := r.l.End(p); err != nil { // second still open: waits for its commit
			t.Errorf("first End: %v", err)
		}
		firstDone = true
		if !secondDone {
			t.Error("first End returned before the covering commit")
		}
	})
	r.s.Spawn("second", func(p *sim.Proc) {
		r.l.Begin(p)
		r.l.Stage(100+blockSec, mkBlock(0x02))
		p.Sleep(5 * sim.Millisecond)
		if err := r.l.End(p); err != nil { // last frame out: commits both
			t.Errorf("second End: %v", err)
		}
		secondDone = true
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !firstDone || !secondDone {
		t.Fatal("a process never finished")
	}
	if r.l.Commits != 1 || r.l.CommitBlocks != 2 {
		t.Fatalf("commits=%d blocks=%d, want one group commit of 2 blocks", r.l.Commits, r.l.CommitBlocks)
	}
}

func TestLogFullTriggersCheckpoint(t *testing.T) {
	// 5 blocks of log = 80 sectors; a 1-block transaction is 18 (one
	// descriptor, 16 data sectors, one commit). Four fit (head 1 → 19 →
	// 37 → 55 → 73); the fifth forces a checkpoint and log reset.
	r := newWalRig(t, 5, Config{})
	for i := 0; i < 6; i++ {
		r.commit(t, map[int64]byte{100 + int64(i)*blockSec: byte(0x10 + i)})
	}
	if r.l.Checkpoints == 0 {
		t.Fatal("log never checkpointed")
	}
	if r.l.epoch < 2 {
		t.Fatalf("epoch = %d after wrap, want bumped", r.l.epoch)
	}
	// Checkpointed blocks are home; everything still in the log replays
	// on top. Either way every committed block must be durable.
	if _, err := Recover(r.d, testBase, r.l.sectors, testBlock); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if !bytes.Equal(r.homeBlock(100+int64(i)*blockSec), mkBlock(byte(0x10+i))) {
			t.Fatalf("block %d lost across checkpoint + replay", i)
		}
	}
}

func TestCheckpointWritesHomeAndResets(t *testing.T) {
	r := newWalRig(t, 64, Config{})
	r.commit(t, map[int64]byte{100: 0xC1})
	r.run(t, func(p *sim.Proc) {
		if err := r.l.Checkpoint(p); err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
	})
	if !bytes.Equal(r.homeBlock(100), mkBlock(0xC1)) {
		t.Fatal("checkpoint did not write the block home")
	}
	if r.l.Peek(100) != nil {
		t.Fatal("Peek still serving after checkpoint: home copy is current")
	}
	if r.l.head != 1 || len(r.l.ckpt) != 0 {
		t.Fatal("checkpoint did not reset the log")
	}
	// The epoch bump retired the old transactions.
	rep, err := Recover(r.d, testBase, r.l.sectors, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Txns != 0 {
		t.Fatalf("retired transactions replayed: %v", rep)
	}
}

func TestOverflowCommitDegradesToDirectWrite(t *testing.T) {
	// A transaction bigger than the whole log cannot be journaled; it
	// degrades to writing the blocks home directly.
	r := newWalRig(t, 2, Config{}) // 32-sector log; a 2-block txn is 34
	r.commit(t, map[int64]byte{100: 0x01, 100 + blockSec: 0x02})
	if r.l.OverflowCommits != 1 {
		t.Fatalf("OverflowCommits = %d, want 1", r.l.OverflowCommits)
	}
	if !bytes.Equal(r.homeBlock(100), mkBlock(0x01)) {
		t.Fatal("overflow commit did not write home")
	}
}

func TestCommitIsOneTransferPerMaxPhys(t *testing.T) {
	// One layout: a transaction goes to the driver as contiguous
	// MaxPhys-sized transfers. Eight fresh blocks are 130 sectors (one
	// descriptor, 128 data, one commit): two transfers of the 112-sector
	// MaxPhys. A one-block transaction is one.
	r := newWalRig(t, 64, Config{})
	maxSec := int64(r.dr.MaxPhys() / disk.SectorSize)
	for _, n := range []int{8, 1} {
		blocks := map[int64]byte{}
		for i := 0; i < n; i++ {
			blocks[int64(1000*n+i*blockSec)] = byte(n + i)
		}
		head, queued := r.l.head, r.dr.Stats.Queued
		r.commit(t, blocks)
		sectors := r.l.head - head
		if want := int64(1 + n*blockSec + 1); sectors != want {
			t.Fatalf("%d blocks: transaction of %d sectors, want %d", n, sectors, want)
		}
		if got, want := r.dr.Stats.Queued-queued, (sectors+maxSec-1)/maxSec; got != want {
			t.Errorf("%d blocks: %d transfers for %d sectors, want %d", n, got, sectors, want)
		}
	}
}

// edit returns a copy of img with the given byte ranges rewritten.
func edit(img []byte, fill byte, spans ...[2]int) []byte {
	out := append([]byte(nil), img...)
	for _, sp := range spans {
		for i := sp[0]; i < sp[1]; i++ {
			out[i] = fill ^ byte(i)
		}
	}
	return out
}

// stage commits the given full block images in one transaction.
func (r *walRig) stage(t testing.TB, imgs map[int64][]byte) {
	t.Helper()
	r.run(t, func(p *sim.Proc) {
		r.l.Begin(p)
		for _, sector := range detsort.Keys(imgs) {
			r.l.Stage(sector, imgs[sector])
		}
		if err := r.l.End(p); err != nil {
			t.Errorf("End: %v", err)
		}
	})
}

func TestCommitLogsOnlyChangedSectors(t *testing.T) {
	r := newWalRig(t, 64, Config{})
	a0 := mkBlock(0xA0)
	r.stage(t, map[int64][]byte{100: a0})
	if r.l.CommitSectors != 1+blockSec+1 {
		t.Fatalf("first logging of a block: %d sectors, want it whole", r.l.CommitSectors)
	}
	// Two runs: bytes 10..20 of sector 0, and sectors 3..5 touched by
	// one span that crosses two boundaries. Two records, four sectors.
	a1 := edit(a0, 0x11, [2]int{10, 20}, [2]int{3*disk.SectorSize + 500, 5*disk.SectorSize + 1})
	before := r.l.CommitSectors
	r.stage(t, map[int64][]byte{100: a1})
	if got := r.l.CommitSectors - before; got != 1+4+1 {
		t.Fatalf("re-logging two runs of four sectors: %d sectors", got)
	}
	// An unchanged block logs nothing: the commit is empty.
	head := r.l.head
	r.stage(t, map[int64][]byte{100: a1})
	if r.l.head != head || r.l.EmptyCommits != 1 {
		t.Fatalf("unchanged block moved the log head %d → %d (empty commits %d)", head, r.l.head, r.l.EmptyCommits)
	}
	rep, err := Recover(r.d, testBase, r.l.sectors, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Txns != 2 || rep.Records != 3 || !bytes.Equal(r.homeBlock(100), a1) {
		t.Fatalf("replay of whole + diff records: %v", rep)
	}
}

func TestFirstLoggingAfterCheckpointIsWhole(t *testing.T) {
	// A checkpoint retires the epoch's records, so the next logging of
	// a block may not lean on them: it is whole again, even when one
	// byte changed.
	r := newWalRig(t, 64, Config{})
	a := mkBlock(0xA0)
	r.stage(t, map[int64][]byte{100: a})
	a = edit(a, 1, [2]int{0, 1})
	r.stage(t, map[int64][]byte{100: a})
	r.run(t, func(p *sim.Proc) {
		if err := r.l.Checkpoint(p); err != nil {
			t.Errorf("Checkpoint: %v", err)
		}
	})
	a = edit(a, 2, [2]int{0, 1})
	r.stage(t, map[int64][]byte{100: a})
	if r.l.head != 1+1+blockSec+1 {
		t.Fatalf("first logging after a checkpoint took %d sectors, want a whole block", r.l.head-1)
	}
	// The same holds when a full log forces the checkpoint inside the
	// commit: the records are recomputed after the reset.
	r = newWalRig(t, 2, Config{}) // 32 sectors: one whole block and then some
	a = mkBlock(0xA0)
	r.stage(t, map[int64][]byte{100: a})
	for i := 0; r.l.Checkpoints == 0; i++ {
		a = edit(a, byte(i), [2]int{0, 2 * disk.SectorSize})
		r.stage(t, map[int64][]byte{100: a})
	}
	if r.l.head != 1+1+blockSec+1 {
		t.Fatalf("commit after a log-full checkpoint left head at %d, want one whole block", r.l.head)
	}
	if _, err := Recover(r.d, testBase, r.l.sectors, testBlock); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.homeBlock(100), a) {
		t.Fatal("block lost across the log-full checkpoint")
	}
}

func TestDropRetiresTheEpoch(t *testing.T) {
	// A freed block that the epoch logged: the next commit ends in a
	// checkpoint that neither writes the block home nor leaves a log
	// that replays it over its new owner's bytes.
	r := newWalRig(t, 64, Config{})
	r.commit(t, map[int64]byte{100: 0xA1, 200: 0xB1})
	r.run(t, func(p *sim.Proc) {
		r.l.Begin(p)
		r.l.Drop(100)
		r.l.Stage(200, mkBlock(0xB2))
		if err := r.l.End(p); err != nil {
			t.Errorf("End: %v", err)
		}
	})
	if r.l.Checkpoints != 1 || r.l.Peek(100) != nil {
		t.Fatalf("drop of a logged block: %d checkpoints, Peek %v", r.l.Checkpoints, r.l.Peek(100) != nil)
	}
	if !bytes.Equal(r.homeBlock(100), make([]byte, testBlock)) {
		t.Fatal("checkpoint wrote a dropped block home")
	}
	owner := mkBlock(0xF0)
	r.d.WriteImage(100, owner)
	if _, err := Recover(r.d, testBase, r.l.sectors, testBlock); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.homeBlock(100), owner) || !bytes.Equal(r.homeBlock(200), mkBlock(0xB2)) {
		t.Fatal("replay wrote a dropped block, or lost a committed one")
	}
	// A block dropped before it was ever committed costs no checkpoint.
	r.run(t, func(p *sim.Proc) {
		r.l.Begin(p)
		r.l.Stage(300, mkBlock(0xC1))
		r.l.Drop(300)
		if err := r.l.End(p); err != nil {
			t.Errorf("End: %v", err)
		}
	})
	if r.l.Checkpoints != 1 || r.l.Peek(300) != nil {
		t.Fatalf("drop of a staged block: %d checkpoints", r.l.Checkpoints)
	}
}

// TestSubBlockEditsReplayExactly is the shadow-model property test of
// sector-diff records: random sub-block edits of a few blocks across
// many commits (through log-full checkpoints), and recovery at every
// commit boundary and at every torn prefix of every transaction must
// rebuild exactly the committed images — the previous ones for a torn
// transaction.
func TestSubBlockEditsReplayExactly(t *testing.T) {
	r := newWalRig(t, 8, Config{}) // 128 sectors: frequent checkpoints
	rng := rand.New(rand.NewSource(3))
	homes := []int64{100, 100 + blockSec, 300, 1000, 2000}
	cur := map[int64][]byte{}
	for _, h := range homes {
		cur[h] = make([]byte, testBlock)
	}
	committed := func() map[int64][]byte {
		m := map[int64][]byte{}
		for h, img := range cur {
			m[h] = append([]byte(nil), img...)
		}
		return m
	}
	check := func(what string, want map[int64][]byte) {
		t.Helper()
		rep, err := Recover(r.d, testBase, r.l.sectors, testBlock)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rep.SectorsRead > rep.LogSectors {
			t.Fatalf("%s: read %d of %d log sectors", what, rep.SectorsRead, rep.LogSectors)
		}
		for _, h := range homes {
			if !bytes.Equal(r.homeBlock(h), want[h]) {
				t.Fatalf("%s: block at %d differs from the committed image (%v)", what, h, rep)
			}
		}
	}
	old := committed()
	for c := 0; c < 80; c++ {
		imgs := map[int64][]byte{}
		for _, i := range rng.Perm(len(homes))[:1+rng.Intn(3)] {
			h := homes[i]
			var spans [][2]int
			for k := rng.Intn(4); k >= 0; k-- {
				lo := rng.Intn(testBlock)
				spans = append(spans, [2]int{lo, min(testBlock, lo+1+rng.Intn(3*disk.SectorSize))})
			}
			cur[h] = edit(cur[h], byte(c), spans...)
			imgs[h] = cur[h]
		}
		pre, head, ckpts := r.d.Snapshot(), r.l.head, r.l.Checkpoints
		r.stage(t, imgs)
		post, now := r.d.Snapshot(), committed()
		check(fmt.Sprintf("commit %d", c), now)
		if r.l.Checkpoints == ckpts && r.l.head > head {
			txn := make([]byte, (r.l.head-head)*disk.SectorSize)
			r.d.Restore(post)
			r.d.ReadImage(testBase+head, txn)
			for cut := 0; cut < len(txn)/disk.SectorSize; cut++ {
				r.d.Restore(pre)
				r.d.WriteImage(testBase+head, txn[:cut*disk.SectorSize])
				check(fmt.Sprintf("commit %d cut at sector %d", c, cut), old)
			}
		}
		r.d.Restore(post)
		old = now
	}
	if r.l.Checkpoints == 0 {
		t.Fatal("the edits never filled the log")
	}
}

func TestCommitAllocationsDoNotGrowWithBlocks(t *testing.T) {
	// The wal row of the allocation-free steady state: Stage reuses the
	// copies a commit retires and the transaction image is a per-Log
	// buffer, so re-logging eight blocks allocates no more than one.
	allocs := func(n int) float64 {
		r := newWalRig(t, 64, Config{})
		imgs := make([][]byte, n)
		for i := range imgs {
			imgs[i] = mkBlock(byte(i))
		}
		body := func(p *sim.Proc) {
			r.l.Begin(p)
			for i, img := range imgs {
				img[0]++ // one changed sector per block
				r.l.Stage(int64(100+i*blockSec), img)
			}
			if err := r.l.End(p); err != nil {
				t.Errorf("End: %v", err)
			}
		}
		r.run(t, body) // the first logging is whole
		got := testing.AllocsPerRun(20, func() { r.run(t, body) })
		if r.l.Checkpoints != 0 {
			t.Fatalf("%d blocks: the log filled", n)
		}
		return got
	}
	one, eight := allocs(1), allocs(8)
	if eight > one {
		t.Fatalf("a commit re-logging 8 blocks allocates %.0f times, one re-logging 1 block %.0f", eight, one)
	}
}

func TestCheckpointImageSpillsEverything(t *testing.T) {
	r := newWalRig(t, 64, Config{})
	r.commit(t, map[int64]byte{100: 0xE1}) // committed, in ckpt
	r.l.Stage(100+blockSec, mkBlock(0xE2)) // staged, uncommitted
	r.l.CheckpointImage()
	if !bytes.Equal(r.homeBlock(100), mkBlock(0xE1)) || !bytes.Equal(r.homeBlock(100+blockSec), mkBlock(0xE2)) {
		t.Fatal("CheckpointImage lost state")
	}
	rep, err := Recover(r.d, testBase, r.l.sectors, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Txns != 0 {
		t.Fatal("CheckpointImage left live transactions behind")
	}
}

// TestTornTailPrefixTruncation is the torn-log-tail property test: for
// EVERY prefix-truncation point of a committed transaction's on-log
// image, recovery replays the whole transaction or none of it —
// verified against a shadow model of the home blocks. This is the
// atomicity guarantee the commit checksum provides: no write ordering
// inside the transaction image matters, because any torn combination
// fails the checksum and discards the whole record.
func TestTornTailPrefixTruncation(t *testing.T) {
	r := newWalRig(t, 64, Config{})
	logSectors := r.l.sectors

	// Shadow model: home sector → content before B, content after B.
	const sA1, sA2 = 100, 100 + blockSec // txn A's blocks
	const sB2, sB3 = 200, 200 + blockSec // txn B's fresh blocks
	blkA1, blkA2 := mkBlock(0xA1), mkBlock(0xA2)
	blkB1, blkB2, blkB3 := mkBlock(0xB1), mkBlock(0xB2), mkBlock(0xB3)

	// Transaction A commits, then the platter is snapshotted: the state
	// a crash strictly before B's log write would leave.
	r.commit(t, map[int64]byte{sA1: 0xA1, sA2: 0xA2})
	headA := r.l.head
	preB := r.d.Snapshot()

	// Transaction B: overwrites A's first block, adds two more.
	r.commit(t, map[int64]byte{sA1: 0xB1, sB2: 0xB2, sB3: 0xB3})
	txnB := r.l.head - headA
	regionB := make([]byte, txnB*disk.SectorSize)
	r.d.ReadImage(testBase+headA, regionB)

	for cut := int64(0); cut <= txnB; cut++ {
		// Reconstruct the crash image: everything up to A plus the
		// first cut sectors of B's transaction image.
		r.d.Restore(preB)
		if cut > 0 {
			r.d.WriteImage(testBase+headA, regionB[:cut*disk.SectorSize])
		}
		rep, err := Recover(r.d, testBase, logSectors, testBlock)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rep.SectorsRead > logSectors {
			t.Fatalf("cut %d: recovery read %d sectors from a %d-sector log", cut, rep.SectorsRead, logSectors)
		}
		wantB := cut == txnB // only the complete image replays B
		if wantB {
			if rep.Txns != 2 || rep.TornTail {
				t.Fatalf("cut %d (complete): %v", cut, rep)
			}
		} else if rep.Txns != 1 {
			t.Fatalf("cut %d: replayed %d txns, want A only", cut, rep.Txns)
		}
		// The shadow model: A's blocks always land; B's land all
		// together or not at all.
		check := func(sector int64, want []byte) {
			if !bytes.Equal(r.homeBlock(sector), want) {
				t.Fatalf("cut %d: home block at %d has wrong content", cut, sector)
			}
		}
		check(sA2, blkA2)
		if wantB {
			check(sA1, blkB1)
			check(sB2, blkB2)
			check(sB3, blkB3)
		} else {
			check(sA1, blkA1)
			// B's fresh blocks must be untouched (all-zero platter).
			zero := make([]byte, testBlock)
			check(sB2, zero)
			check(sB3, zero)
		}
	}
}
