package ufs

import (
	"testing"

	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
)

// TestLyingSuperblockIsAnError: a primary superblock that decodes but
// describes a file system the device cannot hold — more groups than
// there are, a negative size, an inode table of gigabytes, groups too
// small for their own metadata, a log anywhere but right after group
// 0's root block (the layout that kept it past the last group among
// them) or one that overflows group 0 — is an error from Mount, and
// a reason for Fsck and Repair to fall back to a backup copy and report
// a superblock finding. Never a panic from indexing what the geometry
// promised.
func TestLyingSuperblockIsAnError(t *testing.T) {
	lies := []struct {
		name string
		lie  func(sb *Superblock)
	}{
		{"NcgPlusOne", func(sb *Superblock) { sb.Ncg++ }},
		{"NegativeSize", func(sb *Superblock) { sb.Size = -5 }},
		{"HugeIpg", func(sb *Superblock) { sb.Ipg = 1 << 20 }},
		{"FpgTooSmall", func(sb *Superblock) { sb.Fpg = sb.MetaFrags(); sb.Size = sb.Ncg * sb.Fpg }},
		{"LogInsideGroup", func(sb *Superblock) { sb.LogFrags = 64; sb.LogStart = sb.Size - 64 }},
		{"LogPastLastGroup", func(sb *Superblock) { sb.LogFrags = 64; sb.LogStart = sb.Size }},
		{"LogMoved", func(sb *Superblock) { sb.LogFrags = 64; sb.LogStart = sb.logStart() + sb.Frag }},
		{"LogOverflowsGroup0", func(sb *Superblock) { sb.LogFrags = sb.Fpg; sb.LogStart = sb.logStart() }},
	}
	for _, l := range lies {
		l := l
		// plant builds the image and overwrites the primary superblock
		// with the lie; the backup copies stay honest.
		plant := func(t *testing.T) *testRig {
			r := newRigOn(t, nil, MkfsOpts{Ipg: 64})
			buildRangesImage(t, r)
			sb := *r.sb
			l.lie(&sb)
			r.d.WriteImage(r.sb.FsbToDb(r.sb.CgSBlock(0)), sb.Marshal())
			return r
		}
		t.Run(l.name+"/Fsck", func(t *testing.T) {
			rep, err := Fsck(plant(t).d)
			if err != nil {
				t.Fatalf("no report from the backup copy: %v", err)
			}
			if len(rep.Problems) == 0 || rep.Problems[0].Class != ClassSuperblock {
				t.Fatalf("fsck trusted the lying primary: %v", rep.Problems)
			}
		})
		t.Run(l.name+"/Mount", func(t *testing.T) {
			r := plant(t)
			if _, err := Mount(r.s, nil, driver.New(r.s, r.d, nil, driver.DefaultConfig()), MountOpts{}); err == nil {
				t.Fatal("no error")
			}
		})
		t.Run(l.name+"/Repair", func(t *testing.T) {
			r := plant(t)
			rep := r.repair(t)
			if !rep.Clean() {
				t.Fatalf("not clean after repair: %v", rep.Check.Problems)
			}
			if len(rep.Fixes) == 0 || rep.Fixes[0].Class != ClassSuperblock {
				t.Fatalf("repair trusted the lying primary: %v", rep.Fixes)
			}
			if rep.Check.Files != 2 || rep.Check.Dirs != 3 {
				t.Fatalf("tree after repair: %d files %d dirs, want 2/3", rep.Check.Files, rep.Check.Dirs)
			}
		})
	}
}

// trafficDev counts offline traffic through a Device: WriteImage calls,
// and blocks read from the inode-table area of sb's cylinder groups.
type trafficDev struct {
	disk.Device
	sb         *Superblock
	writes     int
	inodeReads int64
}

func (c *trafficDev) WriteImage(sector int64, data []byte) {
	c.writes++
	c.Device.WriteImage(sector, data)
}

func (c *trafficDev) ReadImage(sector int64, buf []byte) {
	sb := c.sb
	first := sector * disk.SectorSize / int64(sb.Fsize)
	for f := first; f < first+int64(len(buf))/int64(sb.Fsize); f += int64(sb.Frag) {
		if off := int32(f % int64(sb.Fpg)); f < int64(sb.Size) && off >= sb.CgIblock(0) && off < sb.CgDmin(0) {
			c.inodeReads++
		}
	}
	c.Device.ReadImage(sector, buf)
}

// TestFsckReadsInodeTableOnce is the traffic gate behind the offline
// half's host cost: a scan of the inode table reads each inode block
// once (it used to read the block once per inode in it — 64 reads where
// one does), and the checker never writes.
func TestFsckReadsInodeTableOnce(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		r := newRigOn(t, nil, MkfsOpts{})
		big, _ := buildRangesImage(t, r)
		if corrupt {
			di := r.readDinode(big)
			di.DB[1], di.IB[0] = di.DB[0], r.sb.CgHeader(0)
			r.writeDinode(big, di)
		}
		table := int64(r.sb.Ncg * r.sb.InodeBlocks())

		cd := &trafficDev{Device: r.d, sb: r.sb}
		rep, err := Fsck(cd)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() == corrupt {
			t.Fatalf("corrupt=%v but fsck says %v", corrupt, rep.Problems)
		}
		if cd.writes != 0 {
			t.Errorf("corrupt=%v: Fsck issued %d WriteImage calls", corrupt, cd.writes)
		}
		if cd.inodeReads > table {
			t.Errorf("corrupt=%v: Fsck read %d inode-table blocks, the table has %d", corrupt, cd.inodeReads, table)
		}

		// Repair scans the table once itself and closes with one Fsck.
		cd = &trafficDev{Device: r.d, sb: r.sb}
		rr, err := Repair(cd)
		if err != nil || !rr.Clean() {
			t.Fatalf("repair: %v %+v", err, rr)
		}
		if cd.inodeReads > 2*table {
			t.Errorf("corrupt=%v: Repair and its closing Fsck read %d inode-table blocks, two scans of the table are %d",
				corrupt, cd.inodeReads, 2*table)
		}
	}
}
