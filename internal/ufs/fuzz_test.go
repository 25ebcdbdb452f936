package ufs

import (
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
)

// FuzzPtrPath: for every lbn a file can address the path is in bounds
// and re-composes to lbn; everything else — negative, or from
// MaxFileBlocks on — is an error.
func FuzzPtrPath(f *testing.F) {
	for _, bsize := range []int32{MinBlockSize, MaxBlockSize} {
		n := int64(bsize) / 4
		for _, lbn := range []int64{-1, 0, NDADDR - 1, NDADDR, NDADDR + n - 1, NDADDR + n, NDADDR + n + n,
			NDADDR + n + 37*n + 5, NDADDR + n + n*n - 1, NDADDR + n + n*n, 1 << 62} {
			f.Add(lbn, bsize == MaxBlockSize)
		}
	}
	f.Fuzz(func(t *testing.T, lbn int64, big bool) {
		sb := &Superblock{Bsize: MinBlockSize}
		if big {
			sb.Bsize = MaxBlockSize
		}
		n := sb.NindirPerBlock()
		pp, err := sb.ptrPath(lbn)
		if lbn < 0 || lbn >= NDADDR+n+n*n {
			if err == nil {
				t.Fatalf("lbn %d: no error past the addressable range, path %+v", lbn, pp)
			}
			return
		}
		if err != nil {
			t.Fatalf("lbn %d: %v", lbn, err)
		}
		if pp.depth < 0 || pp.depth > NIADDR {
			t.Fatalf("lbn %d: depth %d", lbn, pp.depth)
		}
		if pp.depth == 0 {
			if int64(pp.root) != lbn || pp.idx != [NIADDR]int64{} {
				t.Fatalf("lbn %d: direct path %+v", lbn, pp)
			}
			return
		}
		if pp.root != pp.depth-1 {
			t.Fatalf("lbn %d: depth %d starts at IB[%d]", lbn, pp.depth, pp.root)
		}
		// Re-compose: the ranges below IB[root], then the indices as
		// digits base n, most significant first.
		base, span, rel := int64(NDADDR), n, int64(0)
		for k := 0; k < pp.root; k++ {
			base += span
			span *= n
		}
		for i, ix := range pp.idx {
			if ix < 0 || ix >= n || (i >= pp.depth && ix != 0) {
				t.Fatalf("lbn %d: idx[%d]=%d out of bounds in %+v", lbn, i, ix, pp)
			}
			if i < pp.depth {
				rel = rel*n + ix
			}
		}
		if base+rel != lbn {
			t.Fatalf("lbn %d: path %+v re-composes to %d", lbn, pp, base+rel)
		}
	})
}

// FuzzFsckRepair overlays fuzz bytes on one inode block, one pointer
// block and the primary superblock of a small image that has files in
// all three pointer ranges and a two-level directory. Whatever the image
// then says, Fsck and Repair each return a report or an error — never a
// panic — and while the superblock is left alone neither errs and Fsck
// passes what Repair left. (Behind a superblock that fits the device but
// describes some other file system, Repair repairs that one.)
func FuzzFsckRepair(f *testing.F) {
	s := sim.New(1)
	f.Cleanup(s.Close)
	dp := disk.DefaultParams()
	dp.Geom = disk.UniformGeometry(32, 8, 64, 3600) // 8 MB: two cylinder groups
	d := disk.New(s, "d0", dp)
	if _, err := Mkfs(d, MkfsOpts{Ipg: 64}); err != nil {
		f.Fatalf("mkfs: %v", err)
	}
	fs, err := Mount(s, nil, driver.New(s, d, nil, driver.DefaultConfig()), MountOpts{})
	if err != nil {
		f.Fatalf("mount: %v", err)
	}
	r := &testRig{s: s, d: d, fs: fs, sb: fs.SB}
	big, dir := buildRangesImage(f, r)
	sb := r.sb
	bigDi, dirDi := r.readDinode(big), r.readDinode(dir)
	ib1 := make([]byte, sb.Bsize)
	d.ReadImage(sb.FsbToDb(bigDi.IB[1]), ib1)
	// The blocks the second overlay can land on: /big's three pointer
	// blocks and /d's directory block.
	targets := []int32{bigDi.IB[0], bigDi.IB[1], getIndir(ib1, 0), dirDi.DB[0]}
	seed := d.Snapshot()
	// Byte offsets of Size, DB and IB within a marshaled dinode.
	const offSize, offDB, offIB = 12, 44, 44 + NDADDR*4
	// Byte offsets of Size, Ncg, Fpg and Ipg within a marshaled superblock.
	const sbSize, sbNcg, sbFpg, sbIpg = 16, 24, 28, 32
	le32 := func(v int32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }

	for _, seed := range []struct {
		inoOff   int
		inoBytes []byte
		which    uint8
		ptrOff   uint16
		ptrBytes []byte
		sbOff    uint16
		sbBytes  []byte
	}{
		{}, // the image as built
		// root size 2^63-1
		{inoOff: sb.InoBlockOff(RootIno) + offSize, inoBytes: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		// IB[0] = -8, IB[1] past the device
		{inoOff: sb.InoBlockOff(big) + offIB, inoBytes: []byte{0xf8, 0xff, 0xff, 0xff, 0x00, 0xff, 0xff, 0x7f}},
		// a level-2 pointer whose end wraps int32
		{which: 1, ptrBytes: []byte{0xfc, 0xff, 0xff, 0x7f}},
		// data pointers into metadata, duplicated
		{which: 0, ptrOff: 4, ptrBytes: []byte{16, 0, 0, 0, 16, 0, 0, 0}},
		// /d becomes a regular file; its dirent reclen is garbage
		{inoOff: sb.InoBlockOff(dir), inoBytes: []byte{0x00, 0x80}, which: 3, ptrBytes: []byte{0, 0, 0, 0, 0xff, 0xff}},
		// /d loses block 0; the second overlay is clipped at the block end
		{inoOff: sb.InoBlockOff(dir) + offDB, inoBytes: []byte{0, 0, 0, 0}, which: 2, ptrOff: 8188, ptrBytes: []byte{1, 2, 3, 4, 5, 6}},
		// /d claims 16 MB: holes, then no IB[0] at all
		{inoOff: sb.InoBlockOff(dir) + offSize, inoBytes: []byte{0, 0, 0, 1, 0, 0, 0, 0}},
		// the primary superblock lies: a group too many, a negative size,
		// a gigabyte of inodes, no magic at all
		{sbOff: sbNcg, sbBytes: le32(sb.Ncg + 1)},
		{sbOff: sbSize, sbBytes: le32(-5)},
		{sbOff: sbIpg, sbBytes: le32(1 << 20)},
		{sbBytes: []byte{0, 0, 0, 0}},
		// it fits the device but is some other file system: one group
		// spanning both, then twice the inodes in each
		{sbOff: sbNcg, sbBytes: append(le32(1), le32(sb.Size)...)},
		{sbOff: sbIpg, sbBytes: le32(2 * sb.Ipg), which: 3, ptrBytes: []byte{0, 0, 0, 0, 0xff, 0xff}},
		{sbOff: sbFpg, sbBytes: le32(sb.Fpg / 2)},
	} {
		f.Add(uint16(seed.inoOff), seed.inoBytes, seed.which, seed.ptrOff, seed.ptrBytes, seed.sbOff, seed.sbBytes)
	}

	f.Fuzz(func(t *testing.T, inoOff uint16, inoBytes []byte, which uint8, ptrOff uint16, ptrBytes []byte, sbOff uint16, sbBytes []byte) {
		d.Restore(seed)
		overlay := func(fsbn int32, size int, off uint16, data []byte) {
			blk := make([]byte, size)
			d.ReadImage(sb.FsbToDb(fsbn), blk)
			copy(blk[int(off)%len(blk):], data)
			d.WriteImage(sb.FsbToDb(fsbn), blk)
		}
		overlay(sb.InoToFsba(RootIno), int(sb.Bsize), inoOff, inoBytes)
		overlay(targets[int(which)%len(targets)], int(sb.Bsize), ptrOff, ptrBytes)
		overlay(sb.CgSBlock(0), SBSize, sbOff, sbBytes)

		_, ferr := Fsck(d)
		rr, rerr := Repair(d)
		if len(sbBytes) > 0 {
			return
		}
		if ferr != nil || rerr != nil {
			t.Fatalf("fsck: %v, repair: %v", ferr, rerr)
		}
		if !rr.Clean() {
			t.Fatalf("not clean after repair:\nfixes: %q\nproblems: %q", rr.Fixes, rr.Check.Problems)
		}
	})
}
