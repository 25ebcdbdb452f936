package wal

import (
	"bytes"
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
	if rep.Txns != 1 || rep.Blocks != 2 || rep.TornTail {
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

func TestClusteredAndUnclusteredLayoutIdentical(t *testing.T) {
	// Clustered changes the request stream, never the bytes: both modes
	// must leave the identical log region image.
	regions := make([][]byte, 2)
	for i, clustered := range []bool{false, true} {
		r := newWalRig(t, 64, Config{Clustered: clustered})
		r.commit(t, map[int64]byte{100: 0xD1, 100 + blockSec: 0xD2, 100 + 2*blockSec: 0xD3})
		buf := make([]byte, r.l.sectors*disk.SectorSize)
		r.d.ReadImage(testBase, buf)
		regions[i] = buf
	}
	if !bytes.Equal(regions[0], regions[1]) {
		t.Fatal("clustered and unclustered log writes differ on disk")
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
