// Package ufs implements Sun's UNIX File System — the BSD Fast File
// System under the vnode architecture — at the byte level: superblock,
// cylinder groups with fragment/inode bitmaps, 128-byte dinodes with
// direct and indirect block pointers, FFS directories, the FFS block
// allocator with rotdelay/maxcontig placement, and bmap extended to
// return the contiguous run length (the paper's one allocator-facing
// change).
//
// The headline constraint of the paper is that the on-disk format does
// not change: the legacy block-at-a-time engine and the clustering
// engine in internal/core both run over images produced by this
// package's Mkfs, and cmd/fsck verifies them.
package ufs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ufsclust/internal/disk"
)

// Fundamental sizes. The fragment is the unit of allocation addressing
// (fsbn = fragment number); the block is the unit of I/O.
const (
	MinBlockSize = 4096
	MaxBlockSize = 8192

	// DinodeSize is the on-disk inode size in bytes.
	DinodeSize = 128

	// NDADDR and NIADDR are the direct and indirect pointer counts.
	NDADDR = 12
	NIADDR = 2

	// RootIno is the root directory's inode number; inode 0 is reserved
	// as the "no inode" sentinel and 1 was historically for bad blocks.
	RootIno = 2

	// Magic marks a valid superblock.
	Magic = 0x011954 // FFS's historic magic

	// CGMagic marks a valid cylinder group header.
	CGMagic = 0x090255

	// sbFrag is the fragment address of the primary superblock
	// (byte offset 8 KB, after the boot area).
	sbFragOffset = 8 // within a cylinder group, in 1 KB fragments

	// groupReserve is the per-group reserved area before the cg header:
	// 16 fragments (boot area in group 0, superblock copy space in all
	// groups).
	groupReserve = 16
)

// Superblock is the on-disk file system description. All fields are
// fixed-size so it marshals with encoding/binary.
type Superblock struct {
	FsMagic int32
	Bsize   int32 // block size, bytes
	Fsize   int32 // fragment size, bytes
	Frag    int32 // fragments per block

	Size  int32 // total fragments
	Dsize int32 // data fragments
	Ncg   int32 // cylinder groups
	Fpg   int32 // fragments per group
	Ipg   int32 // inodes per group (multiple of inodes-per-block)
	Cpg   int32 // cylinders per group

	Minfree int32 // percent of space held back from users

	// Rotdelay is the expected head-turnaround time in milliseconds;
	// the allocator leaves this much gap between successive blocks.
	// Zero means allocate contiguously.
	Rotdelay int32
	// Maxcontig: with Rotdelay zero, the desired cluster size in
	// blocks ("now it always indicates cluster size").
	Maxcontig int32
	// Maxbpg caps the blocks one file may allocate in a cylinder group
	// before the allocator moves it to a fresh group — FFS's defense
	// against a single file exhausting a group. It is why even the
	// best-case extents in the paper's experiment average ~1.5 MB
	// rather than a whole group.
	Maxbpg int32

	// Geometry as mkfs saw it.
	Nsect int32 // sectors per track
	Ntrak int32 // tracks (heads) per cylinder
	Spc   int32 // sectors per cylinder
	Rps   int32 // revolutions per second

	// Summary totals.
	CsNdir   int32
	CsNbfree int32 // free blocks
	CsNifree int32
	CsNffree int32 // free fragments in partial blocks

	Time  int64 // last update
	Clean int32 // clean-unmount flag
	Fmod  int32 // superblock modified flag

	// Metadata journal region (zero on unjournaled images — the fields
	// were appended to the layout, so pre-journal superblocks decode
	// with LogFrags == 0 and nothing changes for them). The log lives
	// in the fragments [LogStart, LogStart+LogFrags), placed beyond
	// Size so it is structurally invisible to Fsck and Repair, whose
	// fragment maps are bounded by Size.
	LogStart int32 // first fragment of the log region
	LogFrags int32 // log region length in fragments (0 = no journal)
}

// SBSize is the marshaled superblock size budget (one fragment).
const SBSize = 1024

// InodesPerBlock returns how many dinodes fit one block.
func (sb *Superblock) InodesPerBlock() int { return int(sb.Bsize) / DinodeSize }

// FsbToDb converts a fragment address to a 512-byte sector address.
func (sb *Superblock) FsbToDb(fsbn int32) int64 {
	return int64(fsbn) * int64(sb.Fsize) / disk.SectorSize
}

// CgBase returns the first fragment of cylinder group cg.
func (sb *Superblock) CgBase(cg int32) int32 { return cg * sb.Fpg }

// CgSBlock returns the fragment address of group cg's superblock copy
// (the primary superblock for group 0).
func (sb *Superblock) CgSBlock(cg int32) int32 { return sb.CgBase(cg) + sbFragOffset }

// CgHeader returns the fragment address of group cg's header block.
func (sb *Superblock) CgHeader(cg int32) int32 { return sb.CgBase(cg) + groupReserve }

// CgIblock returns the fragment address of group cg's first inode block.
func (sb *Superblock) CgIblock(cg int32) int32 { return sb.CgHeader(cg) + sb.Frag }

// InodeBlocks returns the number of blocks holding inodes per group.
func (sb *Superblock) InodeBlocks() int32 {
	return (sb.Ipg + int32(sb.InodesPerBlock()) - 1) / int32(sb.InodesPerBlock())
}

// CgDmin returns the first data fragment of group cg.
func (sb *Superblock) CgDmin(cg int32) int32 {
	return sb.CgIblock(cg) + sb.InodeBlocks()*sb.Frag
}

// MetaFrags returns the per-group fragment count reserved for metadata.
func (sb *Superblock) MetaFrags() int32 {
	return groupReserve + sb.Frag + sb.InodeBlocks()*sb.Frag
}

// InoToCg returns the group holding inode ino.
func (sb *Superblock) InoToCg(ino int32) int32 { return ino / sb.Ipg }

// InoToFsba returns the fragment address of the block containing ino.
func (sb *Superblock) InoToFsba(ino int32) int32 {
	cg := sb.InoToCg(ino)
	blk := (ino % sb.Ipg) / int32(sb.InodesPerBlock())
	return sb.CgIblock(cg) + blk*sb.Frag
}

// InoBlockOff returns ino's byte offset within its inode block.
func (sb *Superblock) InoBlockOff(ino int32) int {
	return int(ino%sb.Ipg) % sb.InodesPerBlock() * DinodeSize
}

// DtoCg returns the group holding fragment fsbn.
func (sb *Superblock) DtoCg(fsbn int32) int32 { return fsbn / sb.Fpg }

// Lblkno returns the logical block holding byte offset off.
func (sb *Superblock) Lblkno(off int64) int64 { return off / int64(sb.Bsize) }

// Blkoff returns off's offset within its block.
func (sb *Superblock) Blkoff(off int64) int { return int(off % int64(sb.Bsize)) }

// BlkSize returns the valid data size of logical block lbn of a file of
// the given length: a full block, or the fragment-rounded tail.
func (sb *Superblock) BlkSize(size int64, lbn int64) int {
	if (lbn+1)*int64(sb.Bsize) <= size {
		return int(sb.Bsize)
	}
	tail := size - lbn*int64(sb.Bsize)
	if tail <= 0 {
		return 0
	}
	// Round up to fragments.
	f := int64(sb.Fsize)
	return int((tail + f - 1) / f * f)
}

// NindirPerBlock returns how many block addresses one indirect block
// holds.
func (sb *Superblock) NindirPerBlock() int64 { return int64(sb.Bsize) / 4 }

// MaxFileBlocks returns the largest addressable logical block count.
func (sb *Superblock) MaxFileBlocks() int64 { return sb.indirBase(NIADDR) }

// Marshal encodes the superblock into a fragment-sized buffer.
func (sb *Superblock) Marshal() []byte {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, sb); err != nil {
		panic(err) // simlint:invariant -- bytes.Buffer writes cannot fail
	}
	out := make([]byte, SBSize)
	copy(out, buf.Bytes())
	return out
}

// UnmarshalSuperblock decodes and validates a superblock.
func UnmarshalSuperblock(data []byte) (*Superblock, error) {
	sb := new(Superblock)
	if err := binary.Read(bytes.NewReader(data), binary.LittleEndian, sb); err != nil {
		return nil, err
	}
	if sb.FsMagic != Magic {
		return nil, fmt.Errorf("ufs: bad superblock magic %#x", sb.FsMagic)
	}
	if sb.Bsize < MinBlockSize || sb.Bsize > MaxBlockSize || sb.Fsize <= 0 ||
		sb.Frag != sb.Bsize/sb.Fsize || sb.Ncg <= 0 || sb.Fpg <= 0 || sb.Ipg <= 0 {
		return nil, errors.New("ufs: inconsistent superblock")
	}
	return sb, nil
}

// Dinode is the on-disk inode.
type Dinode struct {
	Mode   uint16
	Nlink  int16
	UID    uint32
	GID    uint32
	Size   int64
	Atime  int64
	Mtime  int64
	Ctime  int64
	DB     [NDADDR]int32 // direct fragment addresses (0 = hole)
	IB     [NIADDR]int32 // single, double indirect
	Flags  uint32
	Blocks int32 // fragments held, for du/quota and fsck
	Gen    uint32
	Spare  [3]uint32
}

// Mode bits.
const (
	ModeFmt  uint16 = 0xF000
	ModeDir  uint16 = 0x4000
	ModeReg  uint16 = 0x8000
	ModeLink uint16 = 0xA000
)

// IsDir reports whether the inode is a directory.
func (d *Dinode) IsDir() bool { return d.Mode&ModeFmt == ModeDir }

// IsReg reports whether the inode is a regular file.
func (d *Dinode) IsReg() bool { return d.Mode&ModeFmt == ModeReg }

// Allocated reports whether the inode is in use.
func (d *Dinode) Allocated() bool { return d.Mode != 0 }

// MarshalInto encodes the dinode into dst (DinodeSize bytes).
func (d *Dinode) MarshalInto(dst []byte) {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, d); err != nil {
		panic(err) // simlint:invariant -- bytes.Buffer writes cannot fail
	}
	if buf.Len() > DinodeSize {
		panic(fmt.Sprintf("ufs: dinode marshals to %d bytes", buf.Len())) // simlint:invariant -- marshal size is fixed by the layout
	}
	for i := range dst[:DinodeSize] {
		dst[i] = 0
	}
	copy(dst, buf.Bytes())
}

// UnmarshalDinode decodes a dinode.
func UnmarshalDinode(src []byte) Dinode {
	var d Dinode
	if err := binary.Read(bytes.NewReader(src), binary.LittleEndian, &d); err != nil {
		panic(err) // simlint:invariant -- callers pass a whole DinodeSize slot, so the read cannot come up short
	}
	return d
}

// CgHdr is the fixed part of an on-disk cylinder group header; the
// inode and fragment bitmaps follow it in the header block.
type CgHdr struct {
	Magic  int32
	Cgx    int32 // group index
	Ndblk  int32 // data fragments in this group
	Nbfree int32 // free full blocks
	Nifree int32
	Nffree int32 // free frags (in partial blocks)
	Ndir   int32
	Rotor  int32 // next-block search rotor (fragment, group-relative)
	Frotor int32 // fragment search rotor
	Irotor int32 // inode search rotor
}

// cgHdrSize is the marshaled CgHdr size.
var cgHdrSize = binary.Size(CgHdr{})

// CG is an in-memory cylinder group: header plus bitmaps. The inosused
// bitmap has 1 = allocated; the blksfree bitmap has 1 = free (matching
// FFS conventions).
type CG struct {
	CgHdr
	Inosused []byte // ipg bits
	Blksfree []byte // fpg bits
}

// NewCG builds an empty group for mkfs.
func NewCG(sb *Superblock, cgx int32) *CG {
	cg := &CG{
		CgHdr:    CgHdr{Magic: CGMagic, Cgx: cgx},
		Inosused: make([]byte, (sb.Ipg+7)/8),
		Blksfree: make([]byte, (sb.Fpg+7)/8),
	}
	return cg
}

// Marshal encodes the group into a block-sized buffer.
func (cg *CG) Marshal(sb *Superblock) []byte {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, &cg.CgHdr); err != nil {
		panic(err) // simlint:invariant -- bytes.Buffer writes cannot fail
	}
	buf.Write(cg.Inosused)
	buf.Write(cg.Blksfree)
	if buf.Len() > int(sb.Bsize) {
		panic("ufs: cylinder group overflows header block") // simlint:invariant -- mkfs sizes groups to fit the header block
	}
	out := make([]byte, sb.Bsize)
	copy(out, buf.Bytes())
	return out
}

// UnmarshalCG decodes a group read from disk.
func UnmarshalCG(sb *Superblock, data []byte) (*CG, error) {
	cg := new(CG)
	r := bytes.NewReader(data)
	if err := binary.Read(r, binary.LittleEndian, &cg.CgHdr); err != nil {
		return nil, err
	}
	if cg.Magic != CGMagic {
		return nil, fmt.Errorf("ufs: bad cylinder group magic %#x", cg.Magic)
	}
	off := cgHdrSize
	ni := int((sb.Ipg + 7) / 8)
	nb := int((sb.Fpg + 7) / 8)
	if off+ni+nb > len(data) {
		return nil, errors.New("ufs: cylinder group truncated")
	}
	cg.Inosused = append([]byte(nil), data[off:off+ni]...)
	cg.Blksfree = append([]byte(nil), data[off+ni:off+ni+nb]...)
	return cg, nil
}

// --- bitmap helpers -------------------------------------------------------

// bitSet reports bit i of bm.
func bitSet(bm []byte, i int32) bool { return bm[i>>3]&(1<<(i&7)) != 0 }

// setBit sets bit i.
func setBit(bm []byte, i int32) { bm[i>>3] |= 1 << (i & 7) }

// clrBit clears bit i.
func clrBit(bm []byte, i int32) { bm[i>>3] &^= 1 << (i & 7) }

// FragFree reports whether group-relative fragment f is free.
func (cg *CG) FragFree(f int32) bool { return bitSet(cg.Blksfree, f) }

// BlockFree reports whether the whole block starting at group-relative
// fragment f is free.
func (cg *CG) BlockFree(f int32, frag int32) bool {
	for i := int32(0); i < frag; i++ {
		if !bitSet(cg.Blksfree, f+i) {
			return false
		}
	}
	return true
}

// InodeUsed reports whether group-relative inode i is allocated.
func (cg *CG) InodeUsed(i int32) bool { return bitSet(cg.Inosused, i) }
