package ufs

import (
	"fmt"
	"testing"

	"ufsclust/internal/sim"
	"ufsclust/internal/wal"
)

// TestMetadataSteadyStateAllocatesNothing pins the online metadata path
// at zero host allocations once warm: directory lookups, enters and
// removes read names in place, inodes, groups and the superblock encode
// straight into their blocks, and a journal commit stages only the dirty
// state. The rig is journaled so metadata writes are delayed writes and
// nothing here waits on the disk.
func TestMetadataSteadyStateAllocatesNothing(t *testing.T) {
	r := newRig(t, MkfsOpts{LogBlocks: wal.LogBlocks})
	fs := r.fs
	var dip, ip *Inode
	var cg *CG
	var err error
	r.run(t, func(p *sim.Proc) {
		if dip, err = fs.Mkdir(p, "/big"); err != nil {
			return
		}
		if ip, err = fs.Create(p, "/f"); err != nil {
			return
		}
		for i := 0; i < 512; i++ {
			if err = fs.DirEnter(p, dip, fmt.Sprintf("entry%03d", i), ip.Ino); err != nil {
				return
			}
		}
		// About 500 clean inodes in core beside the one dirty one.
		for ino := int32(RootIno + 3); ino < RootIno+503; ino++ {
			var in *Inode
			if in, err = fs.Iget(p, ino); err != nil {
				return
			}
			fs.Iput(p, in)
		}
		if cg, err = fs.loadCG(p, 0); err != nil {
			return
		}
		err = fs.Sync(p)
	})
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	if dip.D.Size < 2*int64(r.sb.Bsize) {
		t.Fatalf("directory is %d bytes; the lookups should cross blocks", dip.D.Size)
	}
	for _, row := range []struct {
		name string
		op   func(p *sim.Proc) error
	}{
		{"DirLookup hit", func(p *sim.Proc) error {
			_, err := fs.DirLookup(p, dip, "entry511")
			return err
		}},
		{"DirLookup miss", func(p *sim.Proc) error {
			if _, err := fs.DirLookup(p, dip, "absent"); err != ErrNotFound {
				return fmt.Errorf("miss: %v", err)
			}
			return nil
		}},
		{"DirEnter+DirRemove", func(p *sim.Proc) error {
			if err := fs.DirEnter(p, dip, "transient", ip.Ino); err != nil {
				return err
			}
			_, err := fs.DirRemove(p, dip, "transient")
			return err
		}},
		{"IUpdate", func(p *sim.Proc) error { return fs.IUpdate(p, ip, false) }},
		{"storeCG", func(p *sim.Proc) error { return fs.storeCG(p, cg) }},
		{"stageCommit", func(p *sim.Proc) error {
			ip.MarkDirty()
			return fs.stageCommit(p)
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			var allocs float64
			var err error
			r.run(t, func(p *sim.Proc) {
				allocs = testing.AllocsPerRun(100, func() {
					if e := row.op(p); e != nil && err == nil {
						err = e
					}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per call in the steady state, want 0", allocs)
			}
		})
	}
}
