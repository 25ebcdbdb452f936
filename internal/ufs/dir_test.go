package ufs

import (
	"strings"
	"testing"

	"ufsclust/internal/sim"
)

// shortTailBlock is a 16-byte directory block whose one live record
// (reclen 12) leaves 4 bytes: too few for another record's header.
func shortTailBlock() []byte {
	blk := make([]byte, 16)
	putDirentLast(blk, RootIno, "a", 12)
	return blk
}

// TestDirBlockShortTailIsCorrupt: a record chain ending under a header's
// length before the block end is a corrupt dirent, not an index panic.
func TestDirBlockShortTailIsCorrupt(t *testing.T) {
	ents, err := parseDirents(shortTailBlock())
	if err == nil || !strings.Contains(err.Error(), "corrupt dirent at offset 12") {
		t.Fatalf("parseDirents = %+v, %v; want a corrupt dirent error at offset 12", ents, err)
	}
}

// FuzzDirBlock: for any bytes the walker either refuses the block or
// yields records that tile it exactly, each at least a header long with
// its name inside it; parseDirents collects the same records (and the
// same error); and on a one-block directory holding the block, DirLookup
// finds every live name the walk found, at its first record.
func FuzzDirBlock(f *testing.F) {
	f.Add(shortTailBlock())
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	good := make([]byte, 64)
	n := putDirent(good, RootIno, ".")
	n += putDirent(good[n:], RootIno, "..")
	putDirentLast(good[n:], 7, "name", len(good)-n)
	f.Add(good)
	f.Add(good[:60])                                                 // reclens overrun the block
	f.Add(append([]byte{}, good[:12]...))                            // "." then a bare tail
	f.Add([]byte{9, 0, 0, 0, 16, 0, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // name past its record

	r := newRig(f, MkfsOpts{})
	var dip *Inode
	var err error
	r.run(f, func(p *sim.Proc) { dip, err = r.fs.Mkdir(p, "/d") })
	if err != nil {
		f.Fatalf("mkdir: %v", err)
	}
	bsize := int(r.sb.Bsize)

	f.Fuzz(func(t *testing.T, blk []byte) {
		w, werr := walkDir(blk)
		ents, perr := parseDirents(blk)
		if werr != nil {
			if perr == nil || perr.Error() != werr.Error() {
				t.Fatalf("walker: %v; collector: %v", werr, perr)
			}
			return
		}
		if perr != nil {
			t.Fatalf("walker accepted the block, collector: %v", perr)
		}
		off, i := 0, 0
		var live []dirRec
		for rec, ok := w.next(); ok; rec, ok = w.next() {
			if rec.off != off || rec.reclen < 8 || 8+len(rec.name) > rec.reclen {
				t.Fatalf("record %d at %d (reclen %d, name %d bytes), want it at %d", i, rec.off, rec.reclen, len(rec.name), off)
			}
			if i >= len(ents) {
				t.Fatalf("collector has %d records, walker more", len(ents))
			}
			e := ents[i]
			if e.Ino != rec.ino || e.off != rec.off || e.reclen != rec.reclen || (rec.ino != 0 && e.Name != string(rec.name)) {
				t.Fatalf("record %d: collector %+v, walker %+v", i, e, rec)
			}
			if rec.ino != 0 {
				live = append(live, rec)
			}
			off += rec.reclen
			i++
		}
		if off != len(blk) || i != len(ents) {
			t.Fatalf("records tile %d of %d bytes; walker %d records, collector %d", off, len(blk), i, len(ents))
		}

		// The block as the directory's only block: the rest of it is one
		// free record.
		if len(blk) > bsize || (len(blk) < bsize && len(blk) > bsize-8) {
			return
		}
		dirBlk := make([]byte, bsize)
		copy(dirBlk, blk)
		if len(blk) < bsize {
			dirBlk[len(blk)+4] = byte((bsize - len(blk)))
			dirBlk[len(blk)+5] = byte((bsize - len(blk)) >> 8)
		}
		r.run(t, func(p *sim.Proc) {
			fsbn, _, err := r.fs.Bmap(p, dip, 0)
			if err != nil {
				t.Errorf("bmap: %v", err)
				return
			}
			b, err := r.fs.BC.Bread(p, fsbn)
			if err != nil {
				t.Errorf("bread: %v", err)
				return
			}
			copy(b.Data, dirBlk)
			r.fs.BC.Brelse(b)
			for _, rec := range live {
				want := rec.ino
				for _, first := range live {
					if string(first.name) == string(rec.name) {
						want = first.ino
						break
					}
				}
				if got, err := r.fs.DirLookup(p, dip, string(rec.name)); err != nil || got != want {
					t.Errorf("DirLookup(%q) = %d, %v; want %d", rec.name, got, err, want)
				}
			}
		})
	})
}
