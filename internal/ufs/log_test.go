package ufs

import (
	"bytes"
	"strings"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
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
	if !strings.Contains(strings.Join(rep.Problems, "\n"), "overlaps metadata") {
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
