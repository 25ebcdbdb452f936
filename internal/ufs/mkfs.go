package ufs

import (
	"fmt"

	"ufsclust/internal/disk"
	"ufsclust/internal/wal"
)

// The paper's file system geometry, which every Mkfs lays down: 8 KB
// blocks, 1 KB fragments, 16 cylinders per group. A file may allocate at
// most half a group's blocks in one group (maxbpg).
const (
	mkfsBsize = 8192
	mkfsFsize = 1024
	mkfsCpg   = 16
)

// MkfsOpts parameterizes file system creation. The zero value gets the
// paper's defaults: 10% minfree and the legacy rotdelay=4ms /
// maxcontig=1 tuning (run D). The clustered configurations retune
// rotdelay/maxcontig — which, deliberately, does not change the on-disk
// format.
type MkfsOpts struct {
	Ipg       int // inodes per group (rounded up to a block of inodes)
	Minfree   int // percent
	Rotdelay  int // milliseconds between successive blocks
	Maxcontig int // blocks per cluster when Rotdelay is 0

	// LogBlocks reserves a metadata-journal region of that many blocks
	// in group 0 (0 = no journal; the image is then byte-identical to a
	// pre-journal Mkfs). The region is recorded in
	// Superblock.LogStart/LogFrags, formatted here and attached by
	// Mount.
	LogBlocks int
}

// check refuses options no file system can be made from: a negative
// count or delay, and a reserve that leaves users no space at all.
func (o MkfsOpts) check() error {
	switch {
	case o.Ipg < 0:
		return fmt.Errorf("ufs: %d inodes per group", o.Ipg)
	case o.Minfree < 0 || o.Minfree >= 100:
		return fmt.Errorf("ufs: minfree %d%% is outside 0-99", o.Minfree)
	case o.Rotdelay < 0:
		return fmt.Errorf("ufs: rotdelay %d ms is negative", o.Rotdelay)
	case o.Maxcontig < 0:
		return fmt.Errorf("ufs: maxcontig %d is negative", o.Maxcontig)
	case o.LogBlocks < 0:
		return fmt.Errorf("ufs: log of %d blocks", o.LogBlocks)
	}
	return nil
}

func (o MkfsOpts) withDefaults() MkfsOpts {
	if o.Ipg == 0 {
		o.Ipg = 512
	}
	if o.Minfree == 0 {
		o.Minfree = 10
	}
	if o.Maxcontig == 0 {
		o.Maxcontig = 1
	}
	return o
}

// Mkfs lays a fresh file system onto d's image. It runs "offline" (no
// simulated time passes) and returns the superblock it wrote. A log
// goes in group 0, where a fresh tree's inodes and first files live,
// formatted as an empty log the next Mount attaches.
func Mkfs(d disk.Device, opts MkfsOpts) (*Superblock, error) {
	if err := opts.check(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	g := d.Geom()
	spc := g.Zones[0].SPT * g.Heads

	sb := &Superblock{
		FsMagic:   Magic,
		Bsize:     mkfsBsize,
		Fsize:     mkfsFsize,
		Frag:      mkfsBsize / mkfsFsize,
		Cpg:       mkfsCpg,
		Minfree:   int32(o.Minfree),
		Rotdelay:  int32(o.Rotdelay),
		Maxcontig: int32(o.Maxcontig),
		Nsect:     int32(g.Zones[0].SPT),
		Ntrak:     int32(g.Heads),
		Spc:       int32(spc),
		Rps:       int32(g.RPM / 60),
	}
	ipb := int32(mkfsBsize / DinodeSize)
	sb.Ipg = (int32(o.Ipg) + ipb - 1) / ipb * ipb

	totalFrags := g.TotalBytes() / mkfsFsize
	sb.Fpg = mkfsCpg * int32(spc) * disk.SectorSize / mkfsFsize
	sb.Ncg = int32(totalFrags / int64(sb.Fpg))
	if sb.Ncg < 1 {
		return nil, fmt.Errorf("ufs: disk too small (%d frags/group, %d total)", sb.Fpg, totalFrags)
	}
	sb.Size = sb.Ncg * sb.Fpg
	if o.LogBlocks > 0 {
		sb.LogStart = sb.logStart()
		sb.LogFrags = int32(o.LogBlocks) * sb.Frag
	}
	// What the readers would refuse, Mkfs does not write.
	if err := sb.fits(d); err != nil {
		return nil, err
	}
	sb.Dsize = sb.Ncg*(sb.Fpg-sb.MetaFrags()) - sb.LogFrags
	sb.Maxbpg = sb.Fpg / sb.Frag / 2

	// Everything is free except the reserved fragments and inodes and
	// the root directory: inode RootIno, holding group 0's first data
	// block.
	im := image{d: d, sb: sb}
	root, rootBlk := rootDir(sb, sb.CgDmin(0))
	im.write(root.DB[0], rootBlk)
	iblk := im.read(sb.InoToFsba(RootIno), sb.Frag)
	root.MarshalInto(iblk[sb.InoBlockOff(RootIno):])
	im.write(sb.InoToFsba(RootIno), iblk)
	owner := make([]int32, sb.MetaFrags()+sb.Frag)
	for f := sb.MetaFrags(); int(f) < len(owner); f++ {
		owner[f] = RootIno
	}
	inodes := []Dinode{RootIno: root}
	for cgx := int32(0); cgx < sb.Ncg; cgx++ {
		im.write(sb.CgHeader(cgx), buildCG(sb, cgx, owner, inodes).Marshal(sb))
		owner, inodes = nil, nil // the other groups hold nothing yet
	}

	if sb.LogFrags > 0 {
		base, _ := sb.logRegion()
		wal.Format(d, base)
	}
	sb.Clean = 1
	im.writeSuperblocks()
	return sb, nil
}
