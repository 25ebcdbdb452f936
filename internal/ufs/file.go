package ufs

import (
	"fmt"
	"strings"

	"ufsclust/internal/sim"
)

// Namei resolves an absolute path ("/a/b/c") to an inode, holding a
// reference on the result. Symbolic links are followed, with a loop
// bound.
func (fs *Fs) Namei(p *sim.Proc, path string) (*Inode, error) {
	return fs.namei(p, path, 0)
}

func (fs *Fs) namei(p *sim.Proc, path string, depth int) (*Inode, error) {
	if depth > 8 {
		return nil, fmt.Errorf("ufs: too many levels of symbolic links in %q", path)
	}
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("ufs: path %q not absolute", path)
	}
	ip, err := fs.Iget(p, RootIno)
	if err != nil {
		return nil, err
	}
	for _, comp := range splitPath(path) {
		if !ip.D.IsDir() {
			fs.Iput(p, ip)
			return nil, ErrNotDir
		}
		ino, err := fs.DirLookup(p, ip, comp)
		fs.Iput(p, ip)
		if err != nil {
			return nil, err
		}
		if ip, err = fs.Iget(p, ino); err != nil {
			return nil, err
		}
		if ip.D.Mode&ModeFmt == ModeLink {
			// Follow (absolute targets only; the reproduction keeps
			// path semantics simple).
			target, err := fs.Readlink(ip)
			fs.Iput(p, ip)
			if err != nil {
				return nil, err
			}
			if !strings.HasPrefix(target, "/") {
				return nil, fmt.Errorf("ufs: relative symlink target %q unsupported", target)
			}
			if ip, err = fs.namei(p, target, depth+1); err != nil {
				return nil, err
			}
		}
	}
	return ip, nil
}

func splitPath(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

// lookupParent resolves the parent directory of path and returns it with
// the leaf name.
func (fs *Fs) lookupParent(p *sim.Proc, path string) (*Inode, string, error) {
	comps := splitPath(path)
	if len(comps) == 0 {
		return nil, "", fmt.Errorf("ufs: empty path %q", path)
	}
	dir := "/" + strings.Join(comps[:len(comps)-1], "/")
	dip, err := fs.Namei(p, dir)
	if err != nil {
		return nil, "", err
	}
	if !dip.D.IsDir() {
		fs.Iput(p, dip)
		return nil, "", ErrNotDir
	}
	return dip, comps[len(comps)-1], nil
}

// newNode is what Create, Mkdir and Symlink share: resolve the parent,
// refuse an existing name, allocate an inode, let fill build the dinode
// (and whatever blocks it needs), enter the name, and write the new
// inode. It returns the inode referenced; on any failure after the
// allocation the reference is dropped.
func (fs *Fs) newNode(p *sim.Proc, path string, isDir bool, fill func(p *sim.Proc, dip, ip *Inode) error) (*Inode, error) {
	dip, name, err := fs.lookupParent(p, path)
	if err != nil {
		return nil, err
	}
	defer fs.Iput(p, dip)
	if _, err := fs.DirLookup(p, dip, name); err == nil {
		return nil, ErrExists
	} else if err != ErrNotFound {
		return nil, err
	}
	ino, err := fs.IAlloc(p, dip, isDir)
	if err != nil {
		return nil, err
	}
	ip, err := fs.Iget(p, ino)
	if err != nil {
		return nil, err
	}
	if err = fill(p, dip, ip); err == nil {
		ip.MarkDirty()
		err = fs.DirEnter(p, dip, name, ino)
	}
	if err == nil {
		if isDir {
			dip.D.Nlink++ // the child's ".."
			dip.MarkDirty()
		}
		// UFS writes the new inode synchronously so the name never points
		// at garbage after a crash — one of the ordering costs B_ORDER
		// would remove.
		err = fs.IUpdate(p, ip, true)
	}
	if err != nil {
		fs.Iput(p, ip)
		return nil, err
	}
	return ip, nil
}

// Create makes a new regular file and returns its inode (referenced).
// Like every top-level namespace operation it runs inside a journal
// transaction frame when a journal is attached: the synchronous
// metadata writes below degrade to delayed ones and the closing frame
// commits them all with one sequential log write.
func (fs *Fs) Create(p *sim.Proc, path string) (ip *Inode, err error) {
	err = fs.journaled(p, func() (err error) {
		ip, err = fs.newNode(p, path, false, func(_ *sim.Proc, _, ip *Inode) error {
			ip.D = Dinode{Mode: ModeReg | 0o644, Nlink: 1}
			return nil
		})
		return err
	})
	return ip, err
}

// Mkdir creates a directory.
func (fs *Fs) Mkdir(p *sim.Proc, path string) (ip *Inode, err error) {
	err = fs.journaled(p, func() (err error) {
		ip, err = fs.newNode(p, path, true, fs.emptyDir)
		return err
	})
	return ip, err
}

// emptyDir is Mkdir's fill: a directory of one block holding "." and
// "..".
func (fs *Fs) emptyDir(p *sim.Proc, dip, ip *Inode) error {
	ip.D = Dinode{Mode: ModeDir | 0o755, Nlink: 2}
	fsbn, err := fs.BmapAlloc(p, ip, 0, int(fs.SB.Bsize))
	if err != nil {
		return err
	}
	b := fs.BC.getblk(p, fsbn)
	for i := range b.Data {
		b.Data[i] = 0
	}
	b.valid = true
	n := putDirent(b.Data, ip.Ino, ".")
	putDirentLast(b.Data[n:], dip.Ino, "..", int(fs.SB.Bsize)-n)
	fs.BC.Bdwrite(b)
	ip.D.Size = int64(fs.SB.Bsize)
	return nil
}

// Remove unlinks a file or empty directory and frees its storage when
// the link count reaches zero.
func (fs *Fs) Remove(p *sim.Proc, path string) error {
	return fs.journaled(p, func() error { return fs.remove(p, path) })
}

func (fs *Fs) remove(p *sim.Proc, path string) error {
	dip, name, err := fs.lookupParent(p, path)
	if err != nil {
		return err
	}
	defer fs.Iput(p, dip)
	if name == "." || name == ".." {
		return fmt.Errorf("ufs: cannot remove %q", name)
	}
	ino, err := fs.DirLookup(p, dip, name)
	if err != nil {
		return err
	}
	ip, err := fs.Iget(p, ino)
	if err != nil {
		return err
	}
	defer fs.Iput(p, ip)
	wasDir := ip.D.IsDir()
	if wasDir {
		empty, err := fs.DirIsEmpty(p, ip)
		if err != nil {
			return err
		}
		if !empty {
			return ErrNotEmpty
		}
	}
	if _, err := fs.DirRemove(p, dip, name); err != nil {
		return err
	}
	ip.D.Nlink--
	if wasDir {
		ip.D.Nlink-- // its "."
		dip.D.Nlink--
		dip.MarkDirty()
	}
	if ip.D.Nlink <= 0 {
		if err := fs.Truncate(p, ip, 0); err != nil {
			return err
		}
		mode := ip.D.Mode
		ip.D = Dinode{}
		// Synchronous inode clear before freeing the number: the
		// ordering discipline the paper's rm benchmark pays for.
		if err := fs.IUpdate(p, ip, true); err != nil {
			return err
		}
		if err := fs.IFree(p, ino, mode&ModeFmt == ModeDir); err != nil {
			return err
		}
		delete(fs.itable, ino)
	} else {
		ip.MarkDirty()
	}
	return nil
}

// Truncate shrinks (or zero-extends) ip to size bytes, freeing whole
// blocks past the new end. Growing just updates the length: UFS files
// are sparse by default.
func (fs *Fs) Truncate(p *sim.Proc, ip *Inode, size int64) error {
	return fs.journaled(p, func() error { return fs.truncate(p, ip, size) })
}

func (fs *Fs) truncate(p *sim.Proc, ip *Inode, size int64) error {
	if size < 0 {
		return fmt.Errorf("ufs: negative truncate")
	}
	ip.InvalidateBmapCache()
	if size >= ip.D.Size {
		ip.D.Size = size
		ip.MarkDirty()
		return nil
	}
	oldBlocks := (ip.D.Size + int64(fs.SB.Bsize) - 1) / int64(fs.SB.Bsize)
	newBlocks := (size + int64(fs.SB.Bsize) - 1) / int64(fs.SB.Bsize)

	// Free data blocks past the new end, walking backwards.
	for lbn := oldBlocks - 1; lbn >= newBlocks; lbn-- {
		fsbn, _, err := fs.Bmap(p, ip, lbn)
		if err != nil {
			return err
		}
		if fsbn == 0 {
			continue
		}
		frags := fs.SB.BlkFrags(ip.D.Size, lbn)
		if err := fs.FreeFrags(p, fsbn, frags); err != nil {
			return err
		}
		ip.D.Blocks -= frags
		if err := fs.clearBlockPtr(p, ip, lbn); err != nil {
			return err
		}
	}
	// Free the pointer trees the new size no longer reaches into.
	for k := range ip.D.IB {
		if ip.D.IB[k] == 0 || newBlocks > fs.SB.indirBase(k) {
			continue
		}
		err := fs.eachIndir(p, ip.D.IB[k], k+1, func(ib int32) error {
			if err := fs.FreeFrags(p, ib, fs.SB.Frag); err != nil {
				return err
			}
			ip.D.Blocks -= fs.SB.Frag
			return nil
		})
		if err != nil {
			return err
		}
		ip.D.IB[k] = 0
	}
	// Shrink the new tail block to fragments where the direct range
	// allows it, as FFS truncate does; otherwise di_blocks and the
	// bitmaps disagree with the new size. Only a direct block can hold
	// fewer fragments than a block, so a shrink implies a DB slot.
	if size%int64(fs.SB.Bsize) != 0 {
		lastLbn := size / int64(fs.SB.Bsize)
		oldFrags, newFrags := fs.SB.BlkFrags(ip.D.Size, lastLbn), fs.SB.BlkFrags(size, lastLbn)
		if newFrags < oldFrags && ip.D.DB[lastLbn] != 0 {
			if err := fs.FreeFrags(p, ip.D.DB[lastLbn]+newFrags, oldFrags-newFrags); err != nil {
				return err
			}
			ip.D.Blocks -= oldFrags - newFrags
		}
	}
	ip.D.Size = size
	ip.MarkDirty()
	return nil
}

// eachIndir calls fn on every pointer block of the tree rooted at ib,
// children before their parent; height is the tree's pointer levels
// (1 = ib's entries are data blocks, which fn never sees). A block's
// entries are copied out and its buffer released before fn runs on any
// of them: fn sleeps on other buffers (FreeFrags reads cylinder-group
// blocks, FlushBlock waits for the device), and holding this one across
// that would pin a locked buffer over unrelated waits.
func (fs *Fs) eachIndir(p *sim.Proc, ib int32, height int, fn func(ib int32) error) error {
	if height > 1 {
		b, err := fs.BC.Bread(p, ib)
		if err != nil {
			return err
		}
		var kids []int32
		for i := int64(0); i < fs.SB.NindirPerBlock(); i++ {
			if kid := getIndir(b.Data, i); kid != 0 {
				kids = append(kids, kid)
			}
		}
		fs.BC.Brelse(b)
		for _, kid := range kids {
			if err := fs.eachIndir(p, kid, height-1, fn); err != nil {
				return err
			}
		}
	}
	return fn(ib)
}

// clearBlockPtr zeroes the pointer to logical block lbn.
func (fs *Fs) clearBlockPtr(p *sim.Proc, ip *Inode, lbn int64) error {
	pp, err := fs.SB.ptrPath(lbn)
	if err != nil {
		return err
	}
	if pp.depth == 0 {
		ip.D.DB[pp.root] = 0
		ip.MarkDirty()
		return nil
	}
	b, err := fs.lastIndir(p, ip, pp)
	if b != nil {
		putIndir(b.Data, pp.idx[pp.depth-1], 0)
		fs.BC.Bdwrite(b)
	}
	return err
}

// MaxFastLink is the longest symlink target stored directly in the
// inode's block-pointer area — the paper's precedent for data-in-inode:
// "this is already done for symbolic links if the link is small enough
// (the space normally used for block pointers is filled with the
// symlink data)".
const MaxFastLink = (NDADDR + NIADDR) * 4

// Symlink creates a symbolic link at path pointing to target. Targets
// up to MaxFastLink bytes live in the inode itself (a "fast symlink");
// longer targets are unsupported in this reproduction.
func (fs *Fs) Symlink(p *sim.Proc, path, target string) error {
	return fs.journaled(p, func() error {
		if len(target) == 0 || len(target) > MaxFastLink {
			return fmt.Errorf("ufs: symlink target length %d unsupported (max %d)", len(target), MaxFastLink)
		}
		ip, err := fs.newNode(p, path, false, func(_ *sim.Proc, _, ip *Inode) error {
			ip.D = Dinode{Mode: ModeLink | 0o777, Nlink: 1, Size: int64(len(target))}
			// Pack the target into the pointer area.
			var raw [MaxFastLink]byte
			copy(raw[:], target)
			for i := 0; i < NDADDR; i++ {
				ip.D.DB[i] = int32(uint32(raw[i*4]) | uint32(raw[i*4+1])<<8 |
					uint32(raw[i*4+2])<<16 | uint32(raw[i*4+3])<<24)
			}
			for i := 0; i < NIADDR; i++ {
				o := (NDADDR + i) * 4
				ip.D.IB[i] = int32(uint32(raw[o]) | uint32(raw[o+1])<<8 |
					uint32(raw[o+2])<<16 | uint32(raw[o+3])<<24)
			}
			return nil
		})
		if err == nil {
			fs.Iput(p, ip)
		}
		return err
	})
}

// Readlink returns a symlink's target, served entirely from the inode —
// no data I/O, which is the point the paper generalizes from.
func (fs *Fs) Readlink(ip *Inode) (string, error) {
	if ip.D.Mode&ModeFmt != ModeLink {
		return "", fmt.Errorf("ufs: inode %d is not a symlink", ip.Ino)
	}
	var raw [MaxFastLink]byte
	for i := 0; i < NDADDR; i++ {
		v := uint32(ip.D.DB[i])
		raw[i*4], raw[i*4+1], raw[i*4+2], raw[i*4+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	for i := 0; i < NIADDR; i++ {
		v := uint32(ip.D.IB[i])
		o := (NDADDR + i) * 4
		raw[o], raw[o+1], raw[o+2], raw[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	return string(raw[:ip.D.Size]), nil
}

// Rename moves oldPath to newPath (files or empty-target semantics: an
// existing regular file at newPath is replaced).
func (fs *Fs) Rename(p *sim.Proc, oldPath, newPath string) error {
	return fs.journaled(p, func() error { return fs.rename(p, oldPath, newPath) })
}

func (fs *Fs) rename(p *sim.Proc, oldPath, newPath string) error {
	odip, oname, err := fs.lookupParent(p, oldPath)
	if err != nil {
		return err
	}
	defer fs.Iput(p, odip)
	ino, err := fs.DirLookup(p, odip, oname)
	if err != nil {
		return err
	}
	ndip, nname, err := fs.lookupParent(p, newPath)
	if err != nil {
		return err
	}
	defer fs.Iput(p, ndip)
	ip, err := fs.Iget(p, ino)
	if err != nil {
		return err
	}
	defer fs.Iput(p, ip)
	if ip.D.IsDir() && odip.Ino != ndip.Ino {
		return fmt.Errorf("ufs: directory rename across directories unsupported")
	}
	if existing, err := fs.DirLookup(p, ndip, nname); err == nil {
		if existing == ino {
			return nil
		}
		eip, err := fs.Iget(p, existing)
		if err != nil {
			return err
		}
		isDir := eip.D.IsDir()
		fs.Iput(p, eip)
		if isDir {
			return ErrExists
		}
		if err := fs.Remove(p, newPath); err != nil {
			return err
		}
	} else if err != ErrNotFound {
		return err
	}
	if err := fs.DirEnter(p, ndip, nname, ino); err != nil {
		return err
	}
	if _, err := fs.DirRemove(p, odip, oname); err != nil {
		return err
	}
	return nil
}
