package ufs

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"strings"
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
)

var updateOfflineReports = flag.Bool("update-offline-reports", false, "rewrite testdata/offline_reports.golden")

// editBlock rewrites the on-image block at fsbn through fn.
func (r *testRig) editBlock(fsbn int32, fn func(blk []byte)) {
	blk := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(fsbn), blk)
	fn(blk)
	r.d.WriteImage(r.sb.FsbToDb(fsbn), blk)
}

// editDinode rewrites one on-image dinode through fn.
func (r *testRig) editDinode(ino int32, fn func(di *Dinode)) {
	di := r.readDinode(ino)
	fn(&di)
	r.writeDinode(ino, di)
}

// dirent finds name in block 0 of the on-image directory dir.
func (r *testRig) dirent(t *testing.T, dir int32, name string) Dirent {
	t.Helper()
	blk := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(r.readDinode(dir).DB[0]), blk)
	ents, err := parseDirents(blk)
	if err != nil {
		t.Fatalf("dir ino %d: %v", dir, err)
	}
	for _, e := range ents {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("dir ino %d: no entry %q", dir, name)
	return Dirent{}
}

// relink points the entry name of directory dir at ino.
func (r *testRig) relink(t *testing.T, dir int32, name string, ino int32) {
	t.Helper()
	e := r.dirent(t, dir, name)
	r.editBlock(r.readDinode(dir).DB[0], func(blk []byte) { putIndir(blk[e.off:], 0, ino) })
}

// imageHash is an FNV-64a over every non-zero 8 KB of the device, each
// preceded by its sector address.
func imageHash(d disk.Device) uint64 {
	const chunk = 8192
	h := fnv.New64a()
	buf, zero := make([]byte, chunk), make([]byte, chunk)
	var addr [8]byte
	for sec, end := int64(0), d.Geom().TotalBytes()/disk.SectorSize; sec+chunk/disk.SectorSize <= end; sec += chunk / disk.SectorSize {
		d.ReadImage(sec, buf)
		if bytes.Equal(buf, zero) {
			continue
		}
		for i := range addr {
			addr[i] = byte(sec >> (8 * i))
		}
		h.Write(addr[:])
		h.Write(buf)
	}
	return h.Sum64()
}

// pinImage is what every corruption below starts from: buildRangesImage
// plus a fast symlink /d/ln.
type pinImage struct {
	r                   *testRig
	big, dir, e, f, ln  int32
	ib0, ib1, l2a, l2b  int32 // /big's pointer blocks: IB[0], IB[1] and IB[1]'s entries 0 and 3
	nindir, l2          int64
	bsize               int64
	bigDi, dirDi, rootD Dinode
}

func buildPinImage(t *testing.T, vc *vol.Config) *pinImage {
	t.Helper()
	r := newRigOn(t, vc, MkfsOpts{Ipg: 64})
	big, dir := buildRangesImage(t, r)
	r.run(t, func(p *sim.Proc) {
		if err := r.fs.Symlink(p, "/d/ln", "/big"); err != nil {
			t.Errorf("symlink: %v", err)
		}
	})
	r.fs.SyncImage()
	pi := &pinImage{r: r, big: big, dir: dir, nindir: r.sb.NindirPerBlock(), bsize: int64(r.sb.Bsize)}
	pi.l2 = NDADDR + pi.nindir
	pi.e = r.dirent(t, dir, "e").Ino
	pi.ln = r.dirent(t, dir, "ln").Ino
	pi.f = r.dirent(t, pi.e, "f").Ino
	pi.bigDi, pi.dirDi, pi.rootD = r.readDinode(big), r.readDinode(dir), r.readDinode(RootIno)
	pi.ib0, pi.ib1 = pi.bigDi.IB[0], pi.bigDi.IB[1]
	blk := make([]byte, r.sb.Bsize)
	r.d.ReadImage(r.sb.FsbToDb(pi.ib1), blk)
	pi.l2a, pi.l2b = getIndir(blk, 0), getIndir(blk, 3)
	return pi
}

// TestOfflineReportsPinned pins what the offline half says and does:
// for each corruption of one image, on a bare drive and on a two-member
// concatenation, Fsck's problems, Repair's fixes, the closing check's
// problems and a hash of the repaired platters. Wording, classes, order
// and bytes are all behaviour. Fsck is Repair writing nothing, so its
// problems must equal the fixes; the closing checks, tree counts and
// hashes are the ones recorded before image.go existed.
func TestOfflineReportsPinned(t *testing.T) {
	metaAddr := func(pi *pinImage) int32 { return pi.r.sb.CgHeader(0) }
	rows := []struct {
		name    string
		corrupt func(t *testing.T, pi *pinImage)
	}{
		{"clean", func(*testing.T, *pinImage) {}},

		// Bad, duplicate and beyond-size pointers at each tree level.
		{"DB-inMetadata", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.DB[1] = metaAddr(pi) })
		}},
		{"DB-negative", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.DB[11] = -8 })
		}},
		{"DB-duplicate", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.DB[1] = di.DB[0] })
		}},
		{"DB-duplicateOtherInode", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.f, func(di *Dinode) { di.DB[0] = pi.bigDi.DB[0] })
		}},
		{"DB-beyondSize", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.f, func(di *Dinode) { di.DB[3] = pi.bigDi.DB[0] })
		}},
		{"IB0-negative", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.IB[0] = -8 })
		}},
		{"IB0-duplicate", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.IB[0] = di.DB[0] })
		}},
		{"IB1-pastDevice", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.IB[1] = 0x7fffff00 })
		}},
		{"IB1-duplicate", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.IB[1] = di.IB[0] })
		}},
		{"IB-beyondSize", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.Size = 12 * pi.bsize })
		}},
		{"level1-inMetadata", func(_ *testing.T, pi *pinImage) {
			pi.r.editBlock(pi.ib0, func(blk []byte) { putIndir(blk, 1, metaAddr(pi)) })
		}},
		{"level1-duplicate", func(_ *testing.T, pi *pinImage) {
			pi.r.editBlock(pi.ib0, func(blk []byte) { putIndir(blk, 7, getIndir(blk, 0)) })
		}},
		{"level2-inMetadata", func(_ *testing.T, pi *pinImage) {
			pi.r.editBlock(pi.ib1, func(blk []byte) { putIndir(blk, 0, metaAddr(pi)) })
		}},
		{"level2-duplicate", func(_ *testing.T, pi *pinImage) {
			pi.r.editBlock(pi.ib1, func(blk []byte) { putIndir(blk, 3, pi.ib0) })
		}},
		{"level2-wraps", func(_ *testing.T, pi *pinImage) {
			pi.r.editBlock(pi.ib1, func(blk []byte) { putIndir(blk, 1, 0x7ffffffc) })
		}},
		{"level2-dataPastDevice", func(_ *testing.T, pi *pinImage) {
			pi.r.editBlock(pi.l2a, func(blk []byte) { putIndir(blk, 1, 0x7fffff00); putIndir(blk, 2, getIndir(blk, 0)) })
		}},
		{"level2-beyondSize", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.Size = (pi.l2 + 1) * pi.bsize })
		}},

		// Directories.
		{"root-cleared", func(_ *testing.T, pi *pinImage) {
			pi.r.writeDinode(RootIno, Dinode{})
		}},
		{"root-lostBlock", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(RootIno, func(di *Dinode) { di.DB[0] = 0 })
		}},
		{"root-isFile", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(RootIno, func(di *Dinode) { di.Mode = ModeReg | 0o644 })
		}},
		{"dir-unparseable", func(_ *testing.T, pi *pinImage) {
			pi.r.editBlock(pi.dirDi.DB[0], func(blk []byte) { blk[4], blk[5] = 3, 0 })
		}},
		{"dir-holeAtBlock1", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.dir, func(di *Dinode) { di.Size = 2 * pi.bsize })
		}},
		{"dir-holeAtBlock0", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.dir, func(di *Dinode) { di.DB[0] = 0 })
		}},
		{"dir-holeBehindIB0", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.dir, func(di *Dinode) { di.Size = 16 * pi.bsize })
		}},
		{"dir-sizeNotBlockMultiple", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.dir, func(di *Dinode) { di.Size = pi.bsize + 100 })
		}},
		{"dir-wrongDot", func(t *testing.T, pi *pinImage) {
			pi.r.relink(t, pi.dir, ".", pi.big)
		}},
		{"dir-wrongDotDot", func(t *testing.T, pi *pinImage) {
			pi.r.relink(t, pi.e, "..", pi.e)
		}},
		{"dir-deadLink", func(t *testing.T, pi *pinImage) {
			pi.r.relink(t, RootIno, "big", 60)
		}},
		{"dir-linkOutOfRange", func(t *testing.T, pi *pinImage) {
			pi.r.relink(t, pi.e, "f", 1<<20)
		}},
		{"dir-duplicateDirLink", func(t *testing.T, pi *pinImage) {
			pi.r.relink(t, pi.dir, "ln", pi.e)
		}},
		{"dir-isFile", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.dir, func(di *Dinode) { di.Mode = ModeReg | 0o644 })
		}},
		// A full root block without ".": "..", 12-byte records to /big,
		// one 16-byte record, and /d's entry, 12 bytes in the last 16.
		// Restoring "." leaves /d's entry 4 bytes short of room.
		{"dir-fullBlockLacksDot", func(_ *testing.T, pi *pinImage) {
			pi.r.editBlock(pi.rootD.DB[0], func(blk []byte) {
				clear(blk)
				off := putDirent(blk, RootIno, "..")
				for i := 0; off+12+16+16 <= len(blk); i++ {
					off += putDirent(blk[off:], pi.big, fmt.Sprintf("%03d", i))
				}
				off += putDirent(blk[off:], pi.big, "long")
				putDirentLast(blk[off:], pi.dir, "end", len(blk)-off)
			})
		}},

		// Inode fields.
		{"nlink-wrong", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.Nlink = 5 })
		}},
		{"blocks-wrong", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.big, func(di *Dinode) { di.Blocks += 3 })
		}},
		{"symlink-claimsFragments", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.ln, func(di *Dinode) { di.Blocks = 4 })
		}},
		{"size-negative", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.f, func(di *Dinode) { di.Size = -1 })
		}},
		{"mode-unknown", func(_ *testing.T, pi *pinImage) {
			pi.r.editDinode(pi.f, func(di *Dinode) { di.Mode = 0x1000 })
		}},
		{"reserved-allocated", func(_ *testing.T, pi *pinImage) {
			pi.r.writeDinode(1, Dinode{Mode: ModeReg | 0o644, Nlink: 1})
		}},

		// Superblock and group headers.
		{"superblock-destroyed", func(_ *testing.T, pi *pinImage) {
			pi.r.d.WriteImage(pi.r.sb.FsbToDb(pi.r.sb.CgSBlock(0)), make([]byte, SBSize))
		}},
		{"cg-smashed", func(_ *testing.T, pi *pinImage) {
			pi.r.d.WriteImage(pi.r.sb.FsbToDb(pi.r.sb.CgHeader(1)), make([]byte, pi.r.sb.Bsize))
		}},
		{"cg-bitmapsInverted", func(_ *testing.T, pi *pinImage) {
			pi.r.editBlock(pi.r.sb.CgHeader(0), func(blk []byte) {
				for i := cgHdrSize; i < cgHdrSize+16; i++ {
					blk[i] ^= 0xff
				}
			})
		}},
	}
	devices := []struct {
		name string
		vc   *vol.Config
	}{
		{"bare", nil},
		{"concat2", &vol.Config{Level: vol.Concat, Members: 2}},
	}

	var out strings.Builder
	section := func(title string, fs []Finding) {
		fmt.Fprintf(&out, "%s:\n", title)
		for _, f := range fs {
			fmt.Fprintf(&out, "  %s\n", f)
		}
	}
	for _, dev := range devices {
		for _, row := range rows {
			pi := buildPinImage(t, dev.vc)
			if t.Failed() {
				t.FailNow()
			}
			row.corrupt(t, pi)
			fmt.Fprintf(&out, "== %s/%s\n", dev.name, row.name)
			before, err := Fsck(pi.r.d)
			if err != nil {
				fmt.Fprintf(&out, "fsck error: %v\n", err)
			} else {
				section("fsck", before.Problems)
			}
			rep, err := Repair(pi.r.d)
			if err != nil {
				fmt.Fprintf(&out, "repair error: %v\n", err)
			}
			if rep != nil {
				if before != nil && !slices.Equal(before.Problems, rep.Fixes) {
					t.Errorf("%s/%s: fsck found %v, repair fixed %v", dev.name, row.name, before.Problems, rep.Fixes)
				}
				section("fixes", rep.Fixes)
				if rep.Check != nil {
					section("check", rep.Check.Problems)
					fmt.Fprintf(&out, "tree: %d files %d dirs %d used %d free\n",
						rep.Check.Files, rep.Check.Dirs, rep.Check.UsedFrags, rep.Check.FreeFrags)
				}
			}
			fmt.Fprintf(&out, "image: %016x\n", imageHash(pi.r.d))
		}
	}

	const golden = "testdata/offline_reports.golden"
	if *updateOfflineReports {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", golden, len(gl), len(wl))
	}
}
