package ufs

import (
	"fmt"

	"ufsclust/internal/disk"
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
	// past the last cylinder group (0 = no journal; the image is then
	// byte-identical to a pre-journal Mkfs). The region is recorded in
	// Superblock.LogStart/LogFrags and consumed by internal/wal.
	LogBlocks int
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
// simulated time passes) and returns the superblock it wrote.
func Mkfs(d disk.Device, opts MkfsOpts) (*Superblock, error) {
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
	logFrags := int64(o.LogBlocks) * int64(sb.Frag)
	sb.Fpg = mkfsCpg * int32(spc) * disk.SectorSize / mkfsFsize
	sb.Ncg = int32((totalFrags - logFrags) / int64(sb.Fpg))
	if sb.Ncg < 1 {
		return nil, fmt.Errorf("ufs: disk too small (%d frags/group, %d total, %d log)", sb.Fpg, totalFrags, logFrags)
	}
	sb.Size = sb.Ncg * sb.Fpg
	if logFrags > 0 {
		// The journal claims the fragments immediately past the last
		// group. Fsck and Repair bound their shadow maps at Size, so
		// the region cannot be claimed by files or flagged as lost.
		sb.LogStart = sb.Size
		sb.LogFrags = int32(logFrags)
	}
	// What the readers would refuse, Mkfs does not write.
	if err := sb.fits(d); err != nil {
		return nil, err
	}
	sb.Dsize = sb.Ncg * (sb.Fpg - sb.MetaFrags())
	sb.Maxbpg = sb.Fpg / sb.Frag / 2

	// Everything is free except the metadata, the reserved inodes, and
	// the root directory: inode RootIno, holding group 0's first data
	// block.
	im := image{d, sb}
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

	sb.Clean = 1
	im.writeSuperblocks()
	return sb, nil
}
