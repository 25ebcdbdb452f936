package ufs

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// oracle is what encoding/binary's reflection makes of v: the layout the
// hand-written encoders must reproduce byte for byte.
func oracle(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomValue fills a T with seeded random field values.
func randomValue[T any](t *testing.T, rng *rand.Rand) T {
	t.Helper()
	v, ok := quick.Value(reflect.TypeOf(*new(T)), rng)
	if !ok {
		t.Fatalf("no random %T", *new(T))
	}
	return v.Interface().(T)
}

// garbage returns n bytes of 0xA5, so an encoder that leaves its tail
// unzeroed shows.
func garbage(n int) []byte { return bytes.Repeat([]byte{0xA5}, n) }

// TestEncodersMatchBinaryLayout: for seeded random superblocks, dinodes
// and cylinder groups, MarshalInto writes exactly encoding/binary's
// little-endian layout, zeroes the rest of its destination, and the
// decoders invert it.
func TestEncodersMatchBinaryLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	if cgHdrSize != binary.Size(CgHdr{}) || sbBytes != binary.Size(Superblock{}) || dinodeBytes != binary.Size(Dinode{}) {
		t.Fatalf("sizes: cg header %d/%d, superblock %d/%d, dinode %d/%d", cgHdrSize, binary.Size(CgHdr{}),
			sbBytes, binary.Size(Superblock{}), dinodeBytes, binary.Size(Dinode{}))
	}
	for i := 0; i < 200; i++ {
		sb := randomValue[Superblock](t, rng)
		sb.FsMagic, sb.Bsize, sb.Fsize, sb.Frag = Magic, MaxBlockSize, 1024, 8 // so it validates
		sb.Ncg, sb.Fpg, sb.Ipg = 1+sb.Ncg&0xff, 1+sb.Fpg&0xffff, 1+sb.Ipg&0xffff
		got := garbage(SBSize)
		sb.MarshalInto(got)
		want := make([]byte, SBSize)
		copy(want, oracle(t, &sb))
		if !bytes.Equal(got, want) {
			t.Fatalf("superblock %+v:\n got %x\nwant %x", sb, got, want)
		}
		back, err := UnmarshalSuperblock(got)
		if err != nil || *back != sb {
			t.Fatalf("superblock round trip: %+v, %v; want %+v", back, err, sb)
		}

		d := randomValue[Dinode](t, rng)
		got = garbage(DinodeSize)
		d.MarshalInto(got)
		want = make([]byte, DinodeSize)
		copy(want, oracle(t, &d))
		if !bytes.Equal(got, want) {
			t.Fatalf("dinode %+v:\n got %x\nwant %x", d, got, want)
		}
		if back := UnmarshalDinode(got); back != d {
			t.Fatalf("dinode round trip: %+v; want %+v", back, d)
		}

		cg := &CG{
			CgHdr:    randomValue[CgHdr](t, rng),
			Inosused: make([]byte, (sb.Ipg+7)/8),
			Blksfree: make([]byte, (sb.Fpg+7)/8),
		}
		cg.Magic = CGMagic
		rng.Read(cg.Inosused)
		rng.Read(cg.Blksfree)
		bsize := cgHdrSize + len(cg.Inosused) + len(cg.Blksfree) + rng.Intn(64)
		got = garbage(bsize)
		cg.MarshalInto(got)
		want = make([]byte, bsize)
		copy(want, append(append(oracle(t, &cg.CgHdr), cg.Inosused...), cg.Blksfree...))
		if !bytes.Equal(got, want) {
			t.Fatalf("cylinder group %+v:\n got %x\nwant %x", cg.CgHdr, got, want)
		}
		cgBack, err := UnmarshalCG(&sb, got)
		if err != nil || cgBack.CgHdr != cg.CgHdr || !bytes.Equal(cgBack.Inosused, cg.Inosused) || !bytes.Equal(cgBack.Blksfree, cg.Blksfree) {
			t.Fatalf("cylinder group round trip: %+v, %v; want %+v", cgBack, err, cg)
		}
	}
	for _, n := range []int{0, 1, sbBytes - 1} {
		if _, err := UnmarshalSuperblock(make([]byte, n)); err == nil {
			t.Errorf("a %d-byte superblock decoded", n)
		}
		if _, err := UnmarshalCG(&Superblock{Ipg: 8, Fpg: 8}, make([]byte, n%cgHdrSize)); err == nil {
			t.Errorf("a %d-byte cylinder group decoded", n%cgHdrSize)
		}
	}
}
