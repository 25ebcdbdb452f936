// Package alloclab reproduces the paper's allocator-contiguity
// experiment ("Allocator details"): how large are the physically
// contiguous extents the FFS allocator produces for a big file, on an
// empty file system (best case: average extent 1.5 MB in a 13 MB file)
// and on a heavily fragmented, mostly-full one (worst case: 62 KB
// average in a 16 MB file)? The result justified shipping clustering
// without preallocation.
package alloclab

import (
	"fmt"
	"math/rand"

	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

// Report summarizes the extents of one file. An extent here is the
// paper's definition: "a span of contiguous blocks followed by a gap";
// it may contain many clusters.
type Report struct {
	FileBytes int64
	Extents   []int64 // extent sizes in bytes, in file order
}

// AvgExtent returns the mean extent size in bytes.
func (r *Report) AvgExtent() int64 {
	if len(r.Extents) == 0 {
		return 0
	}
	var sum int64
	for _, e := range r.Extents {
		sum += e
	}
	return sum / int64(len(r.Extents))
}

// MaxExtent returns the largest extent in bytes.
func (r *Report) MaxExtent() int64 {
	var m int64
	for _, e := range r.Extents {
		if e > m {
			m = e
		}
	}
	return m
}

// String renders the report like the paper's prose.
func (r *Report) String() string {
	return fmt.Sprintf("%d extents in a %.1fMB file, average %.1fKB, largest %.1fKB",
		len(r.Extents), float64(r.FileBytes)/(1<<20),
		float64(r.AvgExtent())/1024, float64(r.MaxExtent())/1024)
}

// MeasureFile walks a file's block map and reports its extents.
func MeasureFile(p *sim.Proc, fs *ufs.Fs, ip *ufs.Inode) (*Report, error) {
	sb := fs.SB
	r := &Report{FileBytes: ip.D.Size}
	nblocks := (ip.D.Size + int64(sb.Bsize) - 1) / int64(sb.Bsize)
	var prev int32 = -1
	var cur int64
	for lbn := int64(0); lbn < nblocks; lbn++ {
		fsbn, _, err := fs.Bmap(p, ip, lbn)
		if err != nil {
			return nil, err
		}
		if fsbn == 0 {
			continue
		}
		n := int64(sb.BlkSize(ip.D.Size, lbn))
		if prev >= 0 && fsbn == prev+sb.Frag {
			cur += n
		} else {
			if cur > 0 {
				r.Extents = append(r.Extents, cur)
			}
			cur = n
		}
		prev = fsbn
	}
	if cur > 0 {
		r.Extents = append(r.Extents, cur)
	}
	return r, nil
}

// allocFile creates a file and allocates (without writing data) size
// bytes of blocks — aging and measurement need only allocator state.
func allocFile(p *sim.Proc, fs *ufs.Fs, name string, size int64) (*ufs.Inode, error) {
	ip, err := fs.Create(p, name)
	if err != nil {
		return nil, err
	}
	bsize := int64(fs.SB.Bsize)
	for off := int64(0); off < size; off += bsize {
		n := bsize
		if off+n > size {
			n = size - off
		}
		if _, err := fs.BmapAlloc(p, ip, off/bsize, int(n)); err != nil {
			return ip, err
		}
		ip.D.Size = off + n
	}
	ip.MarkDirty()
	return ip, nil
}

// BestCase writes one file of fileBytes onto an empty file system and
// reports its extents.
func BestCase(p *sim.Proc, fs *ufs.Fs, fileBytes int64) (*Report, error) {
	if fileBytes <= 0 {
		return nil, fmt.Errorf("alloclab: file size %d bytes, want > 0", fileBytes)
	}
	ip, err := allocFile(p, fs, "/bestcase", fileBytes)
	if err != nil {
		return nil, err
	}
	return MeasureFile(p, fs, ip)
}

// AgeOpts controls the fragmentation aging pass.
type AgeOpts struct {
	TargetFull float64 // delete down to this fraction of data space, in (0, 1) (the paper: 0.85)
	Churn      int     // delete/recreate cycles after the fill, >= 0
}

// meanFileKB is the mean size of Age's filler files.
const meanFileKB = 48

// ageSeedSalt separates Age's random stream from Sim.Rand, which has
// the same seed.
const ageSeedSalt = 0x6167_6564 // "aged"

// Check refuses options that would age nothing measurable: a target
// outside (0, 1) or negative churn.
func (o AgeOpts) Check() error {
	switch {
	case !(o.TargetFull > 0 && o.TargetFull < 1):
		return fmt.Errorf("alloclab: aging target %v full, want a fraction in (0, 1)", o.TargetFull)
	case o.Churn < 0:
		return fmt.Errorf("alloclab: churn %d, want >= 0", o.Churn)
	}
	return nil
}

// Age fills the file system nearly to the minfree ceiling with many
// small files, churns (deletes and recreates a random subset
// repeatedly), and finally deletes files at random down to TargetFull —
// so the free space the next big file must use is scattered holes, not
// a contiguous tail. This matches the paper's "heavily fragmented /home
// partition": a file system that has lived at high occupancy with
// ongoing deletions.
func Age(p *sim.Proc, fs *ufs.Fs, o AgeOpts) error {
	if err := o.Check(); err != nil {
		return err
	}
	// A stream of its own, seeded from the machine's: drawn from
	// Sim.Rand, the aged image would change whenever the number of disk
	// requests did, since each request draws its command jitter there.
	rng := rand.New(rand.NewSource(fs.Sim.Seed() ^ ageSeedSalt))
	var names []string
	id := 0
	// Spread the filler files across directories: FFS places new
	// directories (and therefore their files) in different cylinder
	// groups, as a real /home's user directories are. Without this the
	// fill packs groups front to back and leaves an unfragmented tail.
	ndirs := int(fs.SB.Ncg)
	if ndirs > 32 {
		ndirs = 32
	}
	dirs := make([]string, ndirs)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("/aged%d", i)
		if _, err := fs.Mkdir(p, dirs[i]); err != nil {
			return err
		}
	}
	fileSize := func() int64 {
		// Exponential-ish mix: mostly small, some large.
		kb := 4 + rng.Intn(meanFileKB*2-4)
		if rng.Intn(10) == 0 {
			kb *= 8
		}
		return int64(kb) << 10
	}
	full := func() float64 {
		return 1 - float64(fs.SB.CsNbfree*fs.SB.Frag+fs.SB.CsNffree)/float64(fs.SB.Dsize)
	}
	// Fill as far as the minfree reserve allows.
	fill := func() error {
		for {
			name := fmt.Sprintf("%s/age%d", dirs[id%ndirs], id)
			id++
			if _, err := allocFile(p, fs, name, fileSize()); err != nil {
				if err == ufs.ErrNoSpace {
					// The partial file still holds blocks; keep it,
					// it only adds realism.
					names = append(names, name)
					return nil
				}
				return err
			}
			names = append(names, name)
		}
	}
	if err := fill(); err != nil {
		return err
	}
	for c := 0; c < o.Churn; c++ {
		// Delete ~40% at random, then refill to the ceiling.
		for i := 0; i < len(names); i++ {
			if rng.Intn(10) < 4 {
				if err := fs.Remove(p, names[i]); err != nil {
					return err
				}
				names[i] = names[len(names)-1]
				names = names[:len(names)-1]
				i--
			}
		}
		if err := fill(); err != nil {
			return err
		}
	}
	// Finally, delete at random down to the target occupancy: the free
	// space is now scattered holes across every group.
	for full() > o.TargetFull && len(names) > 0 {
		i := rng.Intn(len(names))
		if err := fs.Remove(p, names[i]); err != nil {
			return err
		}
		names[i] = names[len(names)-1]
		names = names[:len(names)-1]
	}
	return nil
}

// WorstCase ages the file system, then allocates a large file in the
// remaining space and reports its extents. An aged file system that
// cannot hold the whole file is an error: the extents of the part that
// fit are not the measurement.
func WorstCase(p *sim.Proc, fs *ufs.Fs, fileBytes int64, age AgeOpts) (*Report, error) {
	if fileBytes <= 0 {
		return nil, fmt.Errorf("alloclab: file size %d bytes, want > 0", fileBytes)
	}
	if err := Age(p, fs, age); err != nil {
		return nil, err
	}
	ip, err := allocFile(p, fs, "/worstcase", fileBytes)
	if err != nil {
		return nil, fmt.Errorf("alloclab: no room for the file after aging to %v full: %w", age.TargetFull, err)
	}
	return MeasureFile(p, fs, ip)
}
