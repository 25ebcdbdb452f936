package ufs

import (
	"errors"
	"fmt"
	"strings"

	"ufsclust/internal/sim"
)

// Directory entries use the FFS "direct" format: inode number, record
// length, name length, then the name padded to a 4-byte boundary. Record
// lengths within one block always sum to the block size; deleting an
// entry merges its record into its predecessor.

// MaxNameLen bounds a single path component.
const MaxNameLen = 255

// ErrNotFound is returned by lookups that find nothing.
var ErrNotFound = errors.New("ufs: no such file or directory")

// ErrExists is returned when creating over an existing name.
var ErrExists = errors.New("ufs: file exists")

// ErrNotDir is returned when a path component is not a directory.
var ErrNotDir = errors.New("ufs: not a directory")

// ErrNotEmpty is returned when removing a non-empty directory.
var ErrNotEmpty = errors.New("ufs: directory not empty")

// direntSize returns the record size needed for a name of namlen bytes
// (header + name + NUL, rounded to 4).
func direntSize(namlen int) int {
	return 8 + (namlen+1+3)&^3
}

// putDirent writes an entry with a tight record length; returns it.
func putDirent(buf []byte, ino int32, name string) int {
	return putDirentLast(buf, ino, name, direntSize(len(name)))
}

// putDirentLast writes an entry with an explicit record length.
func putDirentLast(buf []byte, ino int32, name string, reclen int) int {
	if len(name) == 0 || len(name) > MaxNameLen {
		panic("ufs: bad dirent name") // simlint:invariant -- DirEnter validates names before this point
	}
	putIndir(buf, 0, ino) // same little-endian u32 encoding
	buf[4] = byte(reclen)
	buf[5] = byte(reclen >> 8)
	buf[6] = byte(len(name))
	buf[7] = byte(len(name) >> 8)
	copy(buf[8:], name)
	buf[8+len(name)] = 0
	return reclen
}

// packDir fills the directory block blk with ents, the last record
// absorbing the slack; with no entries the block is one free record.
// The entries must fit.
func packDir(blk []byte, ents []Dirent) {
	clear(blk)
	off, last := 0, 0
	for _, e := range ents {
		last = off
		off += putDirent(blk[off:], e.Ino, e.Name)
	}
	rem := len(blk) - last
	blk[last+4] = byte(rem)
	blk[last+5] = byte(rem >> 8)
}

// Dirent is a decoded directory entry.
type Dirent struct {
	Ino    int32
	Name   string
	off    int // byte offset within the directory block
	reclen int
}

// dirRec is one record of a directory block as the walker yields it:
// the inode number (0 = free slot), the name as a view into the block,
// and where the record sits.
type dirRec struct {
	ino    int32
	name   []byte
	off    int
	reclen int
}

// dirWalk is a cursor over the records of one directory block. It is
// the one directory decoder: the online operations read names in place
// through it, and parseDirents collects it for the offline checkers.
type dirWalk struct {
	blk []byte
	off int
}

// walkDir checks blk's whole record chain before anything is acted on
// — every header inside the block, every record length a multiple of 4,
// at least a header long and inside the block, every name inside its
// record — and returns a cursor over its records. The checks imply the
// lengths tile the block exactly.
func walkDir(blk []byte) (dirWalk, error) {
	for off := 0; off < len(blk); {
		if off+8 > len(blk) {
			return dirWalk{}, fmt.Errorf("ufs: corrupt dirent at offset %d (header past block end)", off)
		}
		reclen := int(blk[off+4]) | int(blk[off+5])<<8
		namlen := int(blk[off+6]) | int(blk[off+7])<<8
		if reclen < 8 || off+reclen > len(blk) || (reclen&3) != 0 {
			return dirWalk{}, fmt.Errorf("ufs: corrupt dirent at offset %d (reclen %d)", off, reclen)
		}
		if namlen > reclen-8 {
			return dirWalk{}, fmt.Errorf("ufs: corrupt dirent name at offset %d", off)
		}
		off += reclen
	}
	return dirWalk{blk: blk}, nil
}

// next yields the next record; ok is false past the last one.
func (w *dirWalk) next() (r dirRec, ok bool) {
	if w.off >= len(w.blk) {
		return dirRec{}, false
	}
	b := w.blk[w.off:]
	r = dirRec{
		ino:    getIndir(b, 0), // same little-endian u32 encoding
		off:    w.off,
		reclen: int(b[4]) | int(b[5])<<8,
	}
	r.name = b[8 : 8+(int(b[6])|int(b[7])<<8)]
	w.off += r.reclen
	return r, true
}

// find returns the live record named name, if the walk holds one. It
// walks a copy: the caller's cursor does not move.
func (w dirWalk) find(name string) (dirRec, bool) {
	for r, ok := w.next(); ok; r, ok = w.next() {
		if r.ino != 0 && string(r.name) == name {
			return r, true
		}
	}
	return dirRec{}, false
}

// parseDirents decodes one directory block into entries, free slots
// included.
func parseDirents(blk []byte) ([]Dirent, error) {
	w, err := walkDir(blk)
	if err != nil {
		return nil, err
	}
	var out []Dirent
	for r, ok := w.next(); ok; r, ok = w.next() {
		e := Dirent{Ino: r.ino, off: r.off, reclen: r.reclen}
		if r.ino != 0 {
			e.Name = string(r.name)
		}
		out = append(out, e)
	}
	return out, nil
}

// dirBlocks iterates the data blocks of directory dip, calling fn with
// each block's buffer (held busy). fn returns whether it modified the
// block and whether to stop.
func (fs *Fs) dirBlocks(p *sim.Proc, dip *Inode, fn func(b *MBuf) (dirty, stop bool, err error)) error {
	if !dip.D.IsDir() {
		return ErrNotDir
	}
	nblocks := (dip.D.Size + int64(fs.SB.Bsize) - 1) / int64(fs.SB.Bsize)
	for lbn := int64(0); lbn < nblocks; lbn++ {
		fsbn, _, err := fs.Bmap(p, dip, lbn)
		if err != nil {
			return err
		}
		if fsbn == 0 {
			return errors.New("ufs: hole in directory")
		}
		b, err := fs.BC.Bread(p, fsbn)
		if err != nil {
			return err
		}
		dirty, stop, err := fn(b)
		if dirty {
			// Directory modifications follow UFS's ordering discipline
			// (synchronous, or B_ORDER with OrderedWrites) so the name
			// space on disk is always consistent.
			if werr := fs.metaWrite(p, b); werr != nil && err == nil {
				err = werr
			}
		} else {
			fs.BC.Brelse(b)
		}
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// DirLookup finds name in directory dip.
func (fs *Fs) DirLookup(p *sim.Proc, dip *Inode, name string) (int32, error) {
	var found int32
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		w, err := walkDir(b.Data)
		if err != nil {
			return false, true, err
		}
		r, ok := w.find(name)
		found = r.ino
		return false, ok, nil
	})
	if err != nil {
		return 0, err
	}
	if found == 0 {
		return 0, ErrNotFound
	}
	return found, nil
}

// DirEnter links name -> ino into directory dip, reusing slack space in
// existing records or growing the directory by one block.
func (fs *Fs) DirEnter(p *sim.Proc, dip *Inode, name string, ino int32) error {
	if len(name) == 0 || len(name) > MaxNameLen || strings.Contains(name, "/") {
		return fmt.Errorf("ufs: invalid name %q", name)
	}
	need := direntSize(len(name))
	inserted := false
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		w, err := walkDir(b.Data)
		if err != nil {
			return false, true, err
		}
		if _, ok := w.find(name); ok {
			return false, true, ErrExists
		}
		for r, ok := w.next(); ok; r, ok = w.next() {
			var slack, used int
			if r.ino == 0 {
				slack, used = r.reclen, 0
			} else {
				used = direntSize(len(r.name))
				slack = r.reclen - used
			}
			if slack < need {
				continue
			}
			// Shrink the existing record and append the new one.
			if r.ino != 0 {
				b.Data[r.off+4] = byte(used)
				b.Data[r.off+5] = byte(used >> 8)
			}
			putDirentLast(b.Data[r.off+used:], ino, name, r.reclen-used)
			inserted = true
			return true, true, nil
		}
		return false, false, nil
	})
	if err != nil {
		return err
	}
	if inserted {
		return nil
	}
	// Grow the directory by one block holding just this entry.
	lbn := dip.D.Size / int64(fs.SB.Bsize)
	fsbn, err := fs.BmapAlloc(p, dip, lbn, int(fs.SB.Bsize))
	if err != nil {
		return err
	}
	b := fs.BC.getblk(p, fsbn)
	clear(b.Data)
	b.valid = true
	putDirentLast(b.Data, ino, name, int(fs.SB.Bsize))
	if err := fs.metaWrite(p, b); err != nil {
		return err
	}
	dip.D.Size += int64(fs.SB.Bsize)
	dip.MarkDirty()
	return nil
}

// DirRemove unlinks name from dip, merging the freed record into its
// predecessor (or zeroing its inode if it leads the block).
func (fs *Fs) DirRemove(p *sim.Proc, dip *Inode, name string) (int32, error) {
	var removed int32
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		w, err := walkDir(b.Data)
		if err != nil {
			return false, true, err
		}
		var prev dirRec
		for r, ok := w.next(); ok; r, ok = w.next() {
			if r.ino == 0 || string(r.name) != name {
				prev = r
				continue
			}
			removed = r.ino
			if r.off > 0 {
				// Merge into predecessor (records tile the block, so
				// it ends where this one starts).
				nr := prev.reclen + r.reclen
				b.Data[prev.off+4] = byte(nr)
				b.Data[prev.off+5] = byte(nr >> 8)
			} else {
				putIndir(b.Data[r.off:], 0, 0) // zero the inode field
			}
			return true, true, nil
		}
		return false, false, nil
	})
	if err != nil {
		return 0, err
	}
	if removed == 0 {
		return 0, ErrNotFound
	}
	return removed, nil
}

// DirIsEmpty reports whether dip contains only "." and "..".
func (fs *Fs) DirIsEmpty(p *sim.Proc, dip *Inode) (bool, error) {
	empty := true
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		w, err := walkDir(b.Data)
		if err != nil {
			return false, true, err
		}
		for r, ok := w.next(); ok; r, ok = w.next() {
			if r.ino != 0 && string(r.name) != "." && string(r.name) != ".." {
				empty = false
				return false, true, nil
			}
		}
		return false, false, nil
	})
	return empty, err
}

// ReadDir lists the live entries of dip.
func (fs *Fs) ReadDir(p *sim.Proc, dip *Inode) ([]Dirent, error) {
	var out []Dirent
	err := fs.dirBlocks(p, dip, func(b *MBuf) (bool, bool, error) {
		ents, err := parseDirents(b.Data)
		if err != nil {
			return false, true, err
		}
		for _, e := range ents {
			if e.Ino != 0 {
				out = append(out, e)
			}
		}
		return false, false, nil
	})
	return out, err
}
