// Package extfs implements a small extent-based file system — the
// alternative the paper considers and rejects ("Replace UFS with a new
// file system type, an extent based file system"). Files are allocated
// in large physically-contiguous extents whose size the *user* chooses
// per file; the on-disk inode stores <physical block, length> tuples and
// most I/O is done in units of an extent.
//
// It exists for the ablation benchmarks: it demonstrates that clustering
// gets extent-like sequential performance without a new on-disk format,
// and it exhibits the paper's criticism — a fixed, user-chosen extent
// size is wrong somewhere on every disk and under fragmentation the
// promised contiguity silently degrades.
package extfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
)

// Layout constants. Allocation is in 8 KB units ("blocks").
const (
	Magic     = 0x0EF5
	BlockSize = 8192
	// NExtents is the number of extent slots per inode.
	NExtents = 12
	// MaxName bounds file names in the flat root directory.
	MaxName = 27
	// NFiles is the size of the root directory / inode table.
	NFiles = 128
)

// ErrNoSpace mirrors ufs.ErrNoSpace.
var ErrNoSpace = errors.New("extfs: no contiguous extent available")

// ErrNotFound is returned for missing names.
var ErrNotFound = errors.New("extfs: file not found")

// Extent is one contiguous run of blocks.
type Extent struct {
	Pbn int32 // block address (BlockSize units)
	Len int32 // blocks
}

// inode is the on-disk per-file record.
type inode struct {
	Used       int32
	Size       int64
	ExtentSize int32 // user-requested extent size in blocks
	Name       [MaxName + 1]byte
	Extents    [NExtents]Extent
}

// super is the on-disk superblock.
type super struct {
	Magic       int32
	TotalBlocks int32
	DataStart   int32 // first allocatable block
}

// Fs is a mounted extent file system. It charges the UFS engine's
// syscall and copy costs from internal/cpu's table, so comparisons
// isolate the I/O pattern, not bookkeeping.
type Fs struct {
	Sim *sim.Sim
	CPU *cpu.Model // may be nil
	Drv *driver.Driver

	sb     super
	inodes [NFiles]inode
	bitmap []bool // in-core allocation map (1 = used)

	// Stats
	Reads, Writes int64
	ExtentsAlloc  int64
	ShortAllocs   int64 // extents granted smaller than requested
}

// Mkfs formats the disk image for extfs (offline).
func Mkfs(d disk.Device) error {
	total := d.Geom().TotalBytes() / BlockSize
	meta := int64(1 + (NFiles*int64(binary.Size(inode{}))+BlockSize-1)/BlockSize)
	sb := super{Magic: Magic, TotalBlocks: int32(total), DataStart: int32(meta)}
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, &sb); err != nil {
		return err
	}
	blk := make([]byte, BlockSize)
	copy(blk, buf.Bytes())
	d.WriteImage(0, blk)
	// Zero the inode table.
	zero := make([]byte, BlockSize)
	for b := int64(1); b < meta; b++ {
		d.WriteImage(b*(BlockSize/disk.SectorSize), zero)
	}
	return nil
}

// Mount loads the file system.
func Mount(s *sim.Sim, cpuModel *cpu.Model, drv *driver.Driver) (*Fs, error) {
	fs := &Fs{Sim: s, CPU: cpuModel, Drv: drv}
	blk := make([]byte, BlockSize)
	drv.Disk.ReadImage(0, blk)
	if err := binary.Read(bytes.NewReader(blk), binary.LittleEndian, &fs.sb); err != nil {
		return nil, err
	}
	if fs.sb.Magic != Magic {
		return nil, fmt.Errorf("extfs: bad magic %#x", fs.sb.Magic)
	}
	isize := binary.Size(inode{})
	itab := make([]byte, (NFiles*isize+BlockSize-1)/BlockSize*BlockSize)
	drv.Disk.ReadImage(BlockSize/disk.SectorSize, itab)
	for i := range fs.inodes {
		r := bytes.NewReader(itab[i*isize:])
		if err := binary.Read(r, binary.LittleEndian, &fs.inodes[i]); err != nil {
			return nil, err
		}
	}
	fs.bitmap = make([]bool, fs.sb.TotalBlocks)
	for b := int32(0); b < fs.sb.DataStart; b++ {
		fs.bitmap[b] = true
	}
	for i := range fs.inodes {
		if fs.inodes[i].Used == 0 {
			continue
		}
		for _, e := range fs.inodes[i].Extents {
			for b := e.Pbn; b < e.Pbn+e.Len; b++ {
				fs.bitmap[b] = true
			}
		}
	}
	return fs, nil
}

// SyncImage writes the inode table back to the image (offline).
func (fs *Fs) SyncImage() {
	isize := binary.Size(inode{})
	itab := make([]byte, (NFiles*isize+BlockSize-1)/BlockSize*BlockSize)
	for i := range fs.inodes {
		var buf bytes.Buffer
		binary.Write(&buf, binary.LittleEndian, &fs.inodes[i])
		copy(itab[i*isize:], buf.Bytes())
	}
	fs.Drv.Disk.WriteImage(BlockSize/disk.SectorSize, itab)
}

// File is an open extfs file.
type File struct {
	fs  *Fs
	ino int
}

// Create makes a file with the given per-file extent size in blocks —
// the knob the paper argues users cannot set correctly.
func (fs *Fs) Create(name string, extentBlocks int) (*File, error) {
	if len(name) == 0 || len(name) > MaxName {
		return nil, fmt.Errorf("extfs: bad name %q", name)
	}
	if extentBlocks < 1 {
		return nil, fmt.Errorf("extfs: extent size must be positive")
	}
	if _, err := fs.lookup(name); err == nil {
		return nil, fmt.Errorf("extfs: %q exists", name)
	}
	for i := range fs.inodes {
		if fs.inodes[i].Used != 0 {
			continue
		}
		fs.inodes[i] = inode{Used: 1, ExtentSize: int32(extentBlocks)}
		copy(fs.inodes[i].Name[:], name)
		return &File{fs: fs, ino: i}, nil
	}
	return nil, errors.New("extfs: inode table full")
}

func (fs *Fs) lookup(name string) (int, error) {
	for i := range fs.inodes {
		if fs.inodes[i].Used == 0 {
			continue
		}
		n := bytes.IndexByte(fs.inodes[i].Name[:], 0)
		if n < 0 {
			n = len(fs.inodes[i].Name)
		}
		if string(fs.inodes[i].Name[:n]) == name {
			return i, nil
		}
	}
	return 0, ErrNotFound
}

// Open returns a handle for an existing file.
func (fs *Fs) Open(name string) (*File, error) {
	i, err := fs.lookup(name)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: i}, nil
}

// Size returns the file length.
func (f *File) Size() int64 { return f.fs.inodes[f.ino].Size }

// Extents returns a copy of the file's extent list.
func (f *File) Extents() []Extent {
	var out []Extent
	for _, e := range f.fs.inodes[f.ino].Extents {
		if e.Len > 0 {
			out = append(out, e)
		}
	}
	return out
}

// allocExtent finds `want` contiguous blocks, or the largest available
// run if the full request cannot be honored (classic extent-fs
// degradation under fragmentation).
func (fs *Fs) allocExtent(want int32) (Extent, error) {
	bestStart, bestLen := int32(-1), int32(0)
	run, start := int32(0), int32(0)
	for b := fs.sb.DataStart; b < fs.sb.TotalBlocks; b++ {
		if fs.bitmap[b] {
			run = 0
			continue
		}
		if run == 0 {
			start = b
		}
		run++
		if run >= want {
			bestStart, bestLen = start, want
			break
		}
		if run > bestLen {
			bestStart, bestLen = start, run
		}
	}
	if bestStart < 0 || bestLen == 0 {
		return Extent{}, ErrNoSpace
	}
	for b := bestStart; b < bestStart+bestLen; b++ {
		fs.bitmap[b] = true
	}
	fs.ExtentsAlloc++
	if bestLen < want {
		fs.ShortAllocs++
	}
	return Extent{Pbn: bestStart, Len: bestLen}, nil
}

// mapOffset finds the extent and in-extent block for a byte offset,
// allocating through the end of the offset when alloc is true.
func (f *File) mapOffset(off int64, alloc bool) (pbn int32, contig int32, err error) {
	ip := &f.fs.inodes[f.ino]
	lbn := int32(off / BlockSize)
	var covered int32
	for i := range ip.Extents {
		e := &ip.Extents[i]
		if e.Len == 0 {
			if !alloc {
				return 0, 0, fmt.Errorf("extfs: offset %d beyond allocation", off)
			}
			ne, aerr := f.fs.allocExtent(ip.ExtentSize)
			if aerr != nil {
				return 0, 0, aerr
			}
			*e = ne
		}
		if lbn < covered+e.Len {
			rel := lbn - covered
			return e.Pbn + rel, e.Len - rel, nil
		}
		covered += e.Len
	}
	return 0, 0, fmt.Errorf("extfs: file exceeds %d extents", NExtents)
}

// io moves one extent-bounded span through the driver synchronously.
func (f *File) io(p *sim.Proc, pbn int32, buf []byte, write bool) {
	fs := f.fs
	if fs.CPU != nil {
		fs.CPU.Use(p, cpu.GetPage, cpu.ExtentIOInstr)
	}
	fs.Drv.IO(p, &driver.Buf{
		Blkno: int64(pbn) * (BlockSize / disk.SectorSize),
		Data:  buf,
		Write: write,
	})
	if write {
		fs.Writes++
	} else {
		fs.Reads++
	}
}

// span computes the largest transfer starting at off: bounded by the
// extent, maxphys, and n.
func (f *File) span(off int64, n int, alloc bool) (pbn int32, bytes int, err error) {
	pbn, contig, err := f.mapOffset(off, alloc)
	if err != nil {
		return 0, 0, err
	}
	max := int(contig) * BlockSize
	if mp := f.fs.Drv.MaxPhys(); max > mp {
		max = mp
	}
	if n < max {
		max = n
	}
	return pbn, max, nil
}

// Write appends or overwrites data at off, in extent-sized transfers.
// Offsets and lengths must be block-aligned except at EOF (this is a
// benchmark substrate, not a general-purpose fs).
func (f *File) Write(p *sim.Proc, off int64, data []byte) error {
	fs := f.fs
	if fs.CPU != nil {
		fs.CPU.Use(p, cpu.Syscall, cpu.SyscallInstr)
	}
	if off%BlockSize != 0 {
		return errors.New("extfs: unaligned write")
	}
	for len(data) > 0 {
		n := len(data)
		if pad := n % BlockSize; pad != 0 {
			n += BlockSize - pad // round the tail up to a block
		}
		pbn, nb, err := f.span(off, n, true)
		if err != nil {
			return err
		}
		chunk := data
		if len(chunk) > nb {
			chunk = chunk[:nb]
		}
		xfer := make([]byte, nb)
		copy(xfer, chunk)
		if fs.CPU != nil {
			fs.CPU.Use(p, cpu.Copy, cpu.CopyInstrPerByte*int64(len(chunk)))
		}
		f.io(p, pbn, xfer, true)
		off += int64(len(chunk))
		if end := off; end > fs.inodes[f.ino].Size {
			fs.inodes[f.ino].Size = end
		}
		data = data[len(chunk):]
	}
	return nil
}

// Read fills buf from off, in extent-sized transfers.
func (f *File) Read(p *sim.Proc, off int64, buf []byte) (int, error) {
	fs := f.fs
	if fs.CPU != nil {
		fs.CPU.Use(p, cpu.Syscall, cpu.SyscallInstr)
	}
	size := fs.inodes[f.ino].Size
	total := 0
	for len(buf) > 0 && off < size {
		want := len(buf)
		if rem := size - off; int64(want) > rem {
			want = int(rem)
		}
		aligned := (want + BlockSize - 1) / BlockSize * BlockSize
		boff := int(off % BlockSize)
		pbn, nb, err := f.span(off-int64(boff), aligned+boff, false)
		if err != nil {
			return total, err
		}
		xfer := make([]byte, nb)
		f.io(p, pbn, xfer, false)
		n := nb - boff
		if n > want {
			n = want
		}
		copy(buf[:n], xfer[boff:boff+n])
		if fs.CPU != nil {
			fs.CPU.Use(p, cpu.Copy, cpu.CopyInstrPerByte*int64(n))
		}
		off += int64(n)
		buf = buf[n:]
		total += n
	}
	return total, nil
}

// Preallocate reserves extents to cover size bytes up front — the
// extent-fs feature the paper found unnecessary in UFS because the FFS
// allocator already "thinks ahead".
func (f *File) Preallocate(size int64) error {
	blocks := (size + BlockSize - 1) / BlockSize
	ip := &f.fs.inodes[f.ino]
	var covered int64
	for i := range ip.Extents {
		if covered >= blocks {
			return nil
		}
		if ip.Extents[i].Len == 0 {
			e, err := f.fs.allocExtent(ip.ExtentSize)
			if err != nil {
				return err
			}
			ip.Extents[i] = e
		}
		covered += int64(ip.Extents[i].Len)
	}
	if covered < blocks {
		return fmt.Errorf("extfs: %d extents cannot cover %d bytes", NExtents, size)
	}
	return nil
}
