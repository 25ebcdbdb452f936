package ufs

import (
	"bytes"
	"strings"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
	"ufsclust/internal/wal"
)

// TestJournaledImageReservesTheLog: a journaled Mkfs puts the log in
// group 0 right after the root directory's block, takes it out of the
// data space and out of nothing else — the groups are the unjournaled
// image's — and the first file's data lands right behind it. Fsck
// passes the fresh image and counts the log as used. A log that does
// not fit group 0 is a Mkfs error.
func TestJournaledImageReservesTheLog(t *testing.T) {
	plain, r := newRig(t, MkfsOpts{}), newRig(t, MkfsOpts{LogBlocks: wal.LogBlocks})
	sb := r.sb
	if sb.LogStart != sb.CgDmin(0)+sb.Frag || sb.LogFrags != wal.LogBlocks*sb.Frag {
		t.Fatalf("log at %d+%d, want %d+%d", sb.LogStart, sb.LogFrags, sb.CgDmin(0)+sb.Frag, wal.LogBlocks*sb.Frag)
	}
	if sb.Ncg != plain.sb.Ncg || sb.Dsize != plain.sb.Dsize-sb.LogFrags {
		t.Fatalf("journaled image: %d groups, %d data fragments; unjournaled: %d, %d",
			sb.Ncg, sb.Dsize, plain.sb.Ncg, plain.sb.Dsize)
	}
	rep, want := r.fsck(t), plain.fsck(t)
	if !rep.Clean() {
		t.Fatalf("fresh journaled image not clean: %v", rep.Problems)
	}
	if rep.UsedFrags != want.UsedFrags+int64(sb.LogFrags) || rep.FreeFrags != want.FreeFrags-int64(sb.LogFrags) {
		t.Fatalf("used/free %d/%d, want %d/%d", rep.UsedFrags, rep.FreeFrags,
			want.UsedFrags+int64(sb.LogFrags), want.FreeFrags-int64(sb.LogFrags))
	}
	r.mkFileWithData(t, "/f", 0xA5)
	if got := r.readDinode(r.findReg(t, 0)).DB[0]; got != sb.LogStart+sb.LogFrags {
		t.Fatalf("first file block at %d, want %d (right after the log)", got, sb.LogStart+sb.LogFrags)
	}

	p := disk.DefaultParams()
	p.Geom = smallGeom()
	big := MkfsOpts{LogBlocks: int(sb.Fpg / sb.Frag)}
	if _, err := Mkfs(disk.New(r.s, "d1", p), big); err == nil || !strings.Contains(err.Error(), "inside group 0") {
		t.Fatalf("Mkfs of a log larger than group 0: %v", err)
	}
}

// TestPointerIntoLogIsRepaired: a file pointer edited into the log
// region is a claim on reserved space. Fsck reports it as overlapping
// metadata, Repair zeroes it and leaves every byte of the log as it
// was, and the image then recovers and mounts.
func TestPointerIntoLogIsRepaired(t *testing.T) {
	r := newRig(t, MkfsOpts{LogBlocks: wal.LogBlocks})
	base, sectors := r.sb.logRegion()
	r.mkFileWithData(t, "/f", 0xA5)
	ino := r.findReg(t, 0)
	wild := r.sb.LogStart + 8*r.sb.Frag
	r.editDinode(ino, func(di *Dinode) { di.DB[0] = wild })
	log := make([]byte, sectors*disk.SectorSize)
	r.d.ReadImage(base, log)

	rep, err := Fsck(r.d)
	if err != nil {
		t.Fatal(err)
	}
	if !hasClass(rep.Problems, ClassMetadata) {
		t.Fatalf("pointer into the log not reported as metadata: %v", rep.Problems)
	}
	rr := r.repair(t)
	if !rr.Clean() {
		t.Fatalf("not clean after repair: %v", rr.Check.Problems)
	}
	if di := r.readDinode(ino); di.DB[0] != 0 {
		t.Fatalf("repair kept the pointer into the log (%d); fixes %v", di.DB[0], rr.Fixes)
	}
	after := make([]byte, len(log))
	r.d.ReadImage(base, after)
	if !bytes.Equal(after, log) {
		t.Fatal("repair wrote into the log region")
	}

	if rec, err := wal.Recover(r.d, base, sectors, int(r.sb.Bsize)); err != nil || rec.Txns != 0 {
		t.Fatalf("recover after repair: %v, %v", rec, err)
	}
	if _, err := Mount(r.s, nil, driver.New(r.s, r.d, nil, driver.DefaultConfig()), MountOpts{}); err != nil {
		t.Fatalf("mount after repair: %v", err)
	}
	if rep, err := Fsck(r.d); err != nil || !rep.Clean() {
		t.Fatalf("fsck after recovery: %v %v", err, rep)
	}
}

// TestCommitSweepsTheTableAsItStood: a commit folds in the dirty inodes
// of the inode table as it stood when the commit began. Here the commit
// sleeps reading inode 3's block back while another process brings
// inode 69 in core and dirties it: that inode waits for the next
// commit, as it would behind a snapshot of the whole table.
func TestCommitSweepsTheTableAsItStood(t *testing.T) {
	r := newRig(t, MkfsOpts{LogBlocks: wal.LogBlocks})
	fs := r.fs
	var x, late *Inode
	var err, lateErr error
	r.run(t, func(p *sim.Proc) {
		if x, err = fs.Iget(p, RootIno+1); err != nil {
			return
		}
		if _, err = fs.Iget(p, 70); err != nil { // caches inode 69's block
			return
		}
		x.MarkDirty()
		fs.BC.Forget(p, fs.SB.InoToFsba(x.Ino)) // the commit must read it back
		r.s.Spawn("late", func(q *sim.Proc) {
			q.Sleep(sim.Microsecond) // the commit is waiting for the disk
			if late, lateErr = fs.Iget(q, 69); lateErr == nil {
				late.MarkDirty()
			}
		})
		fs.J.Begin(p)
		err = fs.J.End(p)
	})
	if err != nil || lateErr != nil {
		t.Fatalf("commit: %v; late process: %v", err, lateErr)
	}
	if x.dirty || !late.dirty {
		t.Fatalf("after the commit: inode 3 dirty %v, late inode dirty %v; want inode 3 folded and the late inode left dirty", x.dirty, late.dirty)
	}
}

// TestCommitSkipsRemovedInode: an inode removed from the table stays out
// of every later commit, even if a holder of the old in-core copy dirties
// it again — its slot keeps the cleared dinode the remove wrote.
func TestCommitSkipsRemovedInode(t *testing.T) {
	r := newRig(t, MkfsOpts{LogBlocks: wal.LogBlocks})
	fs := r.fs
	var ip *Inode
	var slot Dinode
	var err error
	r.run(t, func(p *sim.Proc) {
		if _, err = fs.Create(p, "/f"); err != nil {
			return
		}
		if ip, err = fs.Namei(p, "/f"); err != nil {
			return
		}
		if err = fs.Remove(p, "/f"); err != nil {
			return
		}
		ip.D.Size = 4096
		ip.MarkDirty()
		fs.J.Begin(p)
		if err = fs.J.End(p); err != nil {
			return
		}
		var b *MBuf
		if b, err = fs.BC.Bread(p, fs.SB.InoToFsba(ip.Ino)); err != nil {
			return
		}
		off := fs.SB.InoBlockOff(ip.Ino)
		slot = UnmarshalDinode(b.Data[off : off+DinodeSize])
		fs.BC.Brelse(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if slot != (Dinode{}) {
		t.Errorf("removed inode %d's slot holds %+v", ip.Ino, slot)
	}
}

// TestJournalBytesPinned pins what a run of journaled namespace
// operations leaves on the device — log records, their order within
// each commit, checkpointed home blocks — and the virtual clock, with
// constants recorded before commits staged from dirty sets instead of
// sweeps of the whole inode table and cache. The operations span enough
// commits to wrap the log into checkpoints.
func TestJournalBytesPinned(t *testing.T) {
	r := newRig(t, MkfsOpts{LogBlocks: wal.LogBlocks})
	fs := r.fs
	var err error
	r.run(t, func(p *sim.Proc) { err = journalScript(p, fs) })
	if err != nil {
		t.Fatal(err)
	}
	if fs.J.Checkpoints == 0 {
		t.Fatal("the log never wrapped")
	}
	const wantHash, wantNow = 0x69bd8a44862f19fb, 7685396992
	if h, now := imageHash(r.d), r.s.Now(); h != wantHash || now != wantNow {
		t.Fatalf("image hash %#x at %d ns, want %#x at %d ns", h, now, uint64(wantHash), wantNow)
	}
}

// journalScript makes, grows, links, renames and removes files in four
// directories, one commit per operation.
func journalScript(p *sim.Proc, fs *Fs) error {
	for d := 0; d < 4; d++ {
		dir := "/d" + itoa(d)
		if _, err := fs.Mkdir(p, dir); err != nil {
			return err
		}
		for i := 0; i < 40; i++ {
			ip, err := fs.Create(p, dir+"/f"+itoa(i))
			if err != nil {
				return err
			}
			err = fs.Truncate(p, ip, int64(i)*1000)
			fs.Iput(p, ip)
			if err != nil {
				return err
			}
		}
		if err := fs.Symlink(p, dir+"/ln", "/d0/f1"); err != nil {
			return err
		}
		if err := fs.Rename(p, dir+"/f2", "/moved"+itoa(d)); err != nil {
			return err
		}
		for i := 0; i < 40; i += 3 {
			if err := fs.Remove(p, dir+"/f"+itoa(i)); err != nil {
				return err
			}
		}
	}
	return nil
}
