package disk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Image file format: a compact sparse dump of the platter so mkfs/fsck
// can operate on real files. Layout (little endian):
//
//	magic   [8]byte  "UFSCIMG1"
//	zones   int32    number of geometry zones
//	heads   int32
//	rpm     int32
//	per zone: cylinders int32, spt int32
//	chunks  int64    number of 64 KB chunks present
//	per chunk: index int64, data [chunkSectors*SectorSize]byte
var imageMagic = [8]byte{'U', 'F', 'S', 'C', 'I', 'M', 'G', '1'}

// DumpImage writes the platter contents and geometry to w.
func (d *Disk) DumpImage(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(imageMagic[:]); err != nil {
		return err
	}
	g := d.P.Geom
	hdr := []int32{int32(len(g.Zones)), int32(g.Heads), int32(g.RPM)}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, z := range g.Zones {
		if err := binary.Write(bw, binary.LittleEndian, int32(z.Cylinders)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, int32(z.SPT)); err != nil {
			return err
		}
	}
	keys := make([]int64, 0, len(d.image))
	for k := range d.image {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if err := binary.Write(bw, binary.LittleEndian, int64(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := binary.Write(bw, binary.LittleEndian, k); err != nil {
			return err
		}
		if _, err := bw.Write(d.image[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadImage replaces the platter contents and geometry from a dump
// written by DumpImage. The disk's mechanical parameters are retained;
// only geometry and data change. The whole dump is parsed before the
// disk is touched: a truncated dump, a bad geometry, a negative chunk
// count, or a chunk index that is negative, past the dump's own
// geometry or repeated returns an error and leaves the disk unchanged.
func (d *Disk) LoadImage(r io.Reader) error {
	g, image, err := parseImage(bufio.NewReader(r))
	if err != nil {
		return err
	}
	d.P.Geom, d.image = g, image
	return nil
}

// parseImage reads and checks a whole dump.
func parseImage(br *bufio.Reader) (*Geometry, map[int64][]byte, error) {
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, err
	}
	if magic != imageMagic {
		return nil, nil, fmt.Errorf("disk: bad image magic %q", magic)
	}
	var hdr [3]int32 // zones, heads, rpm
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, nil, err
	}
	if nz := hdr[0]; nz <= 0 || nz > 64 {
		return nil, nil, fmt.Errorf("disk: implausible zone count %d", nz)
	}
	zones := make([]Zone, hdr[0])
	for i := range zones {
		var z [2]int32 // cylinders, sectors per track
		if err := binary.Read(br, binary.LittleEndian, &z); err != nil {
			return nil, nil, err
		}
		zones[i] = Zone{Cylinders: int(z[0]), SPT: int(z[1])}
	}
	g, err := NewGeometry(int(hdr[1]), int(hdr[2]), zones...)
	if err != nil {
		return nil, nil, fmt.Errorf("disk: bad image geometry: %w", err)
	}
	var n int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, nil, err
	}
	room := (g.TotalSectors() + chunkSectors - 1) / chunkSectors
	if n < 0 || n > room {
		return nil, nil, fmt.Errorf("disk: image claims %d chunks, its geometry holds %d", n, room)
	}
	// Not presized by n: every chunk must be present in the input, so
	// memory grows with what was actually read.
	image := make(map[int64][]byte)
	for i := int64(0); i < n; i++ {
		var k int64
		if err := binary.Read(br, binary.LittleEndian, &k); err != nil {
			return nil, nil, err
		}
		if k < 0 || k >= room {
			return nil, nil, fmt.Errorf("disk: image chunk %d outside its %d-chunk geometry", k, room)
		}
		if _, dup := image[k]; dup {
			return nil, nil, fmt.Errorf("disk: image chunk %d appears twice", k)
		}
		buf := make([]byte, chunkSectors*SectorSize)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, nil, err
		}
		image[k] = buf
	}
	return g, image, nil
}
