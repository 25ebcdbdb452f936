package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ufsclust"
	"ufsclust/internal/prefetch"
	"ufsclust/internal/sim"
	"ufsclust/internal/vol"
	"ufsclust/internal/wal"
)

// Sizes of the full benchmark: a 16 MB file is twice the simulated
// machine's 8 MB of memory, so no workload can be served from the page
// cache alone; 8 KB is one file system block per call.
const (
	fullFileBytes  = 16 << 20
	fullSmallFiles = 512
	ioSize         = 8192
	smallFileBytes = 5000 // one full-size fragment run, not a whole block

	// The FMX pattern of internal/iobench: the file is streamed in
	// mixedPhases contiguous segments, each followed by a burst-random
	// phase of two-block reads.
	mixedPhases      = 4
	mixedBurstBlocks = 2
)

// sizes scales a workload; the schema test shrinks it, the benchmark
// proper always runs fullSizes.
type sizes struct {
	fileBytes  int64
	smallFiles int
	machines   int // differently seeded machines a run pools; see machineSeed
}

var fullSizes = sizes{fileBytes: fullFileBytes, smallFiles: fullSmallFiles, machines: 8}

// workload is one named set of inputs. Setup, measured phase and check
// all run inside one simulated process on a fresh machine.
type workload struct {
	name string
	why  string
	rc   ufsclust.RunConfig
	// opts builds the machine options beyond the run configuration;
	// a function because read-ahead policies carry per-machine state.
	opts func() []ufsclust.Option
	// prealloc writes the data file and purges the cache during setup;
	// small makes the directory and names of the small-file loop.
	prealloc bool
	small    bool
	// body is the measured phase; check runs after it, outside the
	// measured interval.
	body  func(r *rep)
	check func(r *rep)
	// paperKBs is the Figure 10 cell this workload reproduces, 0 if the
	// paper has none.
	paperKBs float64
}

func workloads() []workload {
	return []workload{
		{
			name:     "seq_read_clustered",
			why:      "paper's headline cell: core getpage clustering + fixed read-ahead + disk transfer do the work; vm free-behind keeps the cache alive",
			rc:       ufsclust.RunA(),
			prealloc: true, body: seqRead, paperKBs: 1610,
		},
		{
			name:     "seq_read_legacy",
			why:      "same reads through the block-at-a-time engine on the rotdelay layout: one device I/O per block, so driver/disk/sim event cost dominates host time",
			rc:       ufsclust.RunB(),
			prealloc: true, body: seqRead, paperKBs: 805,
		},
		{
			name: "seq_write_clustered",
			why:  "writes beside reads: core putpage delayed-write clustering, ufs allocator/bmap and the write-limit semaphore; a read-path gain that costs writes shows here",
			rc:   ufsclust.RunA(),
			body: seqWrite, check: checkWrittenFile, paperKBs: 1359,
		},
		{
			name:     "rand_read",
			why:      "seek/rotation bound: disk does nearly all the work, core/prefetch almost none; the bypass workload for every clustering or read-ahead change",
			rc:       ufsclust.RunA(),
			prealloc: true, body: randRead, paperKBs: 383,
		},
		{
			name: "mixed_read_adaptive",
			why:  "IObench FMX pattern under the adaptive policy: the one workload where internal/prefetch decides the outcome (its documented thrash-regime loss)",
			rc:   ufsclust.RunA(),
			opts: func() []ufsclust.Option {
				return []ufsclust.Option{ufsclust.WithReadAhead(prefetch.NewAdaptive(prefetch.AdaptiveConfig{}))}
			},
			prealloc: true, body: mixedRead,
		},
		{
			name: "raid5_seq_write",
			why:  "seq_write_clustered on a 4-member RAID-5: internal/vol stripe split, parity read-modify-write and row locks do most of the work; largest full-stack host cost",
			rc:   ufsclust.RunA(),
			opts: func() []ufsclust.Option {
				return []ufsclust.Option{ufsclust.WithVolume(vol.Config{Level: vol.RAID5, Members: 4})}
			},
			body: seqWrite, check: checkWrittenFile,
		},
		{
			name:  "small_files_sync",
			why:   "data path idle: ufs namespace/inode/fragment/bcache code and synchronous metadata writes do the work; control for small_files_wal",
			rc:    ufsclust.RunA(),
			small: true, body: smallFiles, check: checkDirEmpty,
		},
		{
			name: "small_files_wal",
			why:  "same loop on a journaled machine: internal/wal commit/checkpoint path does the work; the only workload where a journal change can show",
			rc:   ufsclust.RunA(),
			opts: func() []ufsclust.Option {
				return []ufsclust.Option{ufsclust.WithJournal(wal.Config{})}
			},
			small: true, body: smallFiles, check: checkDirEmpty,
		},
	}
}

// Errors an op can fail with beyond what the file system returns.
var (
	errPattern = errors.New("byte pattern mismatch")
	errShort   = errors.New("short transfer")
)

// rep is the state of one repetition: the machine, the generator, and
// what the measured phase observed.
type rep struct {
	w    *workload
	m    *ufsclust.Machine
	p    *sim.Proc // the process of the current stage
	sz   sizes
	rng  *rand.Rand // the benchmark's own offset generator
	salt uint64     // seed-derived, mixed into the byte pattern
	f    *ufsclust.File
	buf  []byte
	path []string // small-file names, built during setup

	// Measured-phase observations. An op is one call into File/Engine.
	lat     []sim.Time    // virtual latency of each op
	inCalls time.Duration // host time spent inside the ops
	bytes   int64         // user bytes read + written
	failed  int
	err     error // first op failure
	// checkErr is a post-phase verification failure (read-back, fsck,
	// directory not empty); it fails every op of the rep.
	checkErr error

	rec *recorder  // non-nil in the traced pass
	res *repResult // separate, so keeping a result does not keep the machine

	v0 sim.Time
	h0 time.Time
}

// fill writes the pattern for file offset off into b: each 8-byte word
// holds its own file offset mixed with the salt, so a block delivered
// from the wrong place never compares equal.
func (r *rep) fill(b []byte, off int64) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], (uint64(off)+uint64(i))*0x9e3779b97f4a7c15^r.salt)
	}
}

func saltOf(seed int64) uint64 { return uint64(seed) * 0xd6e8feb86659fd93 }

func (r *rep) matches(b []byte, off int64) bool {
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != (uint64(off)+uint64(i))*0x9e3779b97f4a7c15^r.salt {
			return false
		}
	}
	return true
}

// begin and end bracket one op — one call into File/Engine — and nothing
// else: the generator's own work (filling and checking buffers) stays
// outside both clocks.
func (r *rep) begin() {
	r.v0 = r.p.Now()
	r.h0 = time.Now()
}

func (r *rep) end(name string, err error) {
	h1, v1 := time.Now(), r.p.Now()
	r.inCalls += h1.Sub(r.h0)
	r.lat = append(r.lat, v1-r.v0)
	if r.rec != nil {
		r.rec.op(name, r.v0, v1, r.h0, h1)
	}
	if err != nil {
		r.fail(name, err)
	}
}

func (r *rep) fail(name string, err error) {
	r.failed++
	if r.err == nil {
		r.err = fmt.Errorf("%s: %w", name, err)
	}
}

// read is one measured Read of len(b) bytes at off, verified against
// the pattern for patOff (the file offset plus a per-file base).
func (r *rep) read(f *ufsclust.File, off, patOff int64, b []byte) {
	r.begin()
	n, err := f.Read(r.p, off, b)
	r.end("read", err)
	r.bytes += int64(n)
	switch {
	case err != nil:
	case n != len(b):
		r.fail("read", errShort)
	case !r.matches(b, patOff):
		r.fail("read", errPattern)
	}
}

func (r *rep) write(f *ufsclust.File, off, patOff int64, b []byte) {
	r.fill(b, patOff)
	r.begin()
	n, err := f.Write(r.p, off, b)
	r.end("write", err)
	r.bytes += int64(n)
	if err == nil && n != len(b) {
		r.fail("write", errShort)
	}
}

func (r *rep) create(path string) *ufsclust.File {
	r.begin()
	f, err := r.m.Engine.Create(r.p, path)
	r.end("create", err)
	return f
}

func (r *rep) fsync(f *ufsclust.File) {
	r.begin()
	r.end("fsync", f.Fsync(r.p))
}

func (r *rep) remove(path string) {
	r.begin()
	r.end("remove", r.m.Engine.Remove(r.p, path))
}

const dataPath = "/data"

// setup prepares what the measured phase needs and is timed as part of
// setup_s: the preallocated file (written, then purged so the measured
// reads start cold), or the small-file directory and names.
func (w *workload) setup(r *rep) error {
	r.buf = make([]byte, ioSize)
	if w.prealloc {
		f, err := r.m.Engine.Create(r.p, dataPath)
		if err != nil {
			return err
		}
		for off := int64(0); off < r.sz.fileBytes; off += ioSize {
			r.fill(r.buf, off)
			if _, err := f.Write(r.p, off, r.buf); err != nil {
				return err
			}
		}
		if err := f.Purge(r.p); err != nil {
			return err
		}
		r.f = f
	}
	if w.small {
		if _, err := r.m.FS.Mkdir(r.p, smallDir); err != nil {
			return err
		}
		r.path = make([]string, r.sz.smallFiles)
		for i := range r.path {
			r.path[i] = fmt.Sprintf("%s/f%04d", smallDir, i)
		}
	}
	return nil
}

func seqRead(r *rep) {
	for off := int64(0); off < r.sz.fileBytes; off += ioSize {
		r.read(r.f, off, off, r.buf)
	}
}

func seqWrite(r *rep) {
	r.f = r.create(dataPath)
	if r.f == nil {
		return
	}
	for off := int64(0); off < r.sz.fileBytes; off += ioSize {
		r.write(r.f, off, off, r.buf)
	}
	r.fsync(r.f)
}

func randRead(r *rep) {
	nblocks := r.sz.fileBytes / ioSize
	for i := int64(0); i < nblocks; i++ {
		off := r.rng.Int63n(nblocks) * ioSize
		r.read(r.f, off, off, r.buf)
	}
}

func mixedRead(r *rep) {
	nblocks := r.sz.fileBytes / ioSize
	seg := r.sz.fileBytes / mixedPhases
	bursts := int(nblocks) / mixedPhases
	for ph := int64(0); ph < mixedPhases; ph++ {
		for off := ph * seg; off < (ph+1)*seg; off += ioSize {
			r.read(r.f, off, off, r.buf)
		}
		for i := 0; i < bursts; i++ {
			base := r.rng.Int63n(nblocks) * ioSize
			for b := int64(0); b < mixedBurstBlocks; b++ {
				if off := base + b*ioSize; off < r.sz.fileBytes {
					r.read(r.f, off, off, r.buf)
				}
			}
		}
	}
}

const smallDir = "/d"

// smallBase separates the patterns of different small files.
func smallBase(i int) int64 { return int64(i+1) << 32 }

func smallFiles(r *rep) {
	b := r.buf[:smallFileBytes]
	for i, path := range r.path {
		f := r.create(path)
		if f == nil {
			continue
		}
		r.write(f, 0, smallBase(i), b)
		r.fsync(f)
		r.read(f, 0, smallBase(i), b)
	}
	for _, path := range r.path {
		r.remove(path)
	}
}

// checkWrittenFile drops the cache and reads the file back from the
// platter against the pattern.
func checkWrittenFile(r *rep) {
	if r.f == nil {
		r.checkErr = errors.New("file was not created")
		return
	}
	if err := r.f.Purge(r.p); err != nil {
		r.checkErr = fmt.Errorf("purge: %w", err)
		return
	}
	if size := r.f.Size(); size != r.sz.fileBytes {
		r.checkErr = fmt.Errorf("file size %d, want %d", size, r.sz.fileBytes)
		return
	}
	for off := int64(0); off < r.sz.fileBytes; off += ioSize {
		n, err := r.f.Read(r.p, off, r.buf)
		if err != nil || n != ioSize {
			r.checkErr = fmt.Errorf("read back at %d: n=%d err=%v", off, n, err)
			return
		}
		if !r.matches(r.buf, off) {
			r.checkErr = fmt.Errorf("read back at %d: %w", off, errPattern)
			return
		}
	}
}

func checkDirEmpty(r *rep) {
	dip, err := r.m.FS.Namei(r.p, smallDir)
	if err != nil {
		r.checkErr = fmt.Errorf("namei %s: %w", smallDir, err)
		return
	}
	defer r.m.FS.Iput(r.p, dip)
	empty, err := r.m.FS.DirIsEmpty(r.p, dip)
	if err != nil {
		r.checkErr = fmt.Errorf("read %s: %w", smallDir, err)
	} else if !empty {
		r.checkErr = fmt.Errorf("%s is not empty after removing every file", smallDir)
	}
}
