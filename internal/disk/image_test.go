package disk

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ufsclust/internal/sim"
)

// newImageDisk returns a drive of geometry g (the default when nil).
func newImageDisk(t testing.TB, g *Geometry) *Disk {
	s := sim.New(1)
	t.Cleanup(s.Close)
	p := DefaultParams()
	p.Geom = g
	return New(s, "d0", p)
}

// imageDisk returns a small drive (512 sectors, 4 chunks in all)
// holding a pattern in chunks 0 and 2.
func imageDisk(t testing.TB) *Disk {
	d := newImageDisk(t, UniformGeometry(4, 2, 64, 3600))
	data := make([]byte, 3*SectorSize)
	for i := range data {
		data[i] = byte(i*7) | 1
	}
	d.WriteImage(5, data)
	d.WriteImage(2*chunkSectors+9, data)
	return d
}

func dump(t testing.TB, d *Disk) []byte {
	var b bytes.Buffer
	if err := d.DumpImage(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// dumpWith builds a dump of imageDisk's geometry whose chunk table
// claims count chunks and lists the given indices, each with a full
// chunk of data.
func dumpWith(t testing.TB, count int64, idx ...int64) []byte {
	valid := dump(t, imageDisk(t))
	hdr := len(valid) - 8 - 2*(8+chunkSectors*SectorSize) // all but the count and imageDisk's two chunks
	b := append([]byte(nil), valid[:hdr]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(count))
	for _, k := range idx {
		b = binary.LittleEndian.AppendUint64(b, uint64(k))
		b = append(b, make([]byte, chunkSectors*SectorSize)...)
	}
	return b
}

// badDump is a dump LoadImage must refuse, and why.
type badDump struct {
	name string
	b    []byte
}

func refusedDumps(t testing.TB) []badDump {
	valid := dump(t, imageDisk(t))
	return []badDump{
		{"truncated chunk", valid[:len(valid)-100]},
		{"truncated header", valid[:20]},
		{"bad magic", append([]byte("UFSCIMG0"), valid[8:]...)},
		{"negative count", dumpWith(t, -1)},
		{"count past geometry", dumpWith(t, 5, 0, 1, 2, 3, 0)},
		{"negative index", dumpWith(t, 1, -1)},
		{"index past geometry", dumpWith(t, 1, 4)},
		{"duplicate index", dumpWith(t, 2, 1, 1)},
	}
}

// TestLoadImageRefusesBadDumpsUnchanged feeds LoadImage dumps it must
// refuse and requires each refusal to leave the disk's geometry and
// platter exactly as they were.
func TestLoadImageRefusesBadDumpsUnchanged(t *testing.T) {
	for _, c := range refusedDumps(t) {
		t.Run(c.name, func(t *testing.T) {
			d := newImageDisk(t, nil)
			d.WriteImage(300, bytes.Repeat([]byte{0xa5}, SectorSize))
			before, geom := dump(t, d), d.P.Geom
			if err := d.LoadImage(bytes.NewReader(c.b)); err == nil {
				t.Fatal("LoadImage accepted the dump")
			}
			if d.P.Geom != geom || !bytes.Equal(dump(t, d), before) {
				t.Fatal("refused dump changed the disk")
			}
		})
	}
}

// FuzzLoadImage: for any bytes LoadImage either refuses them and leaves
// the disk as it was, or loads an image whose DumpImage→LoadImage round
// trip is byte-stable.
func FuzzLoadImage(f *testing.F) {
	f.Add(dump(f, imageDisk(f)))
	for _, c := range refusedDumps(f) {
		f.Add(c.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d := imageDisk(t)
		before, geom := dump(t, d), d.P.Geom
		if err := d.LoadImage(bytes.NewReader(b)); err != nil {
			if d.P.Geom != geom || !bytes.Equal(dump(t, d), before) {
				t.Fatalf("refused dump (%v) changed the disk", err)
			}
			return
		}
		once := dump(t, d)
		d2 := imageDisk(t)
		if err := d2.LoadImage(bytes.NewReader(once)); err != nil {
			t.Fatalf("reloading a dump of a loaded image: %v", err)
		}
		if !bytes.Equal(dump(t, d2), once) {
			t.Fatal("DumpImage→LoadImage round trip is not byte-stable")
		}
	})
}
