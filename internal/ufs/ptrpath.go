package ufs

import "fmt"

// ptrPath says where logical block lbn hangs in a dinode's pointer
// tree — 4.4BSD's ufs_getlbns. It is the only statement of the tree's
// shape (NDADDR direct slots, then IB[k] rooting k+1 levels of pointer
// blocks of NindirPerBlock entries each); every walker descends by it.
type ptrPath struct {
	depth int // pointer blocks between the dinode and the data block
	root  int // the dinode slot to start from: DB[root] at depth 0, else IB[root]
	// idx[i] is the entry to follow in the i-th pointer block on the
	// way down; idx[depth-1] indexes the block's own address.
	idx [NIADDR]int64
}

// ptrPath computes the path to lbn. It is pure and allocates nothing
// on success: Bmap runs it on every getpage.
func (sb *Superblock) ptrPath(lbn int64) (ptrPath, error) {
	if lbn >= 0 && lbn < NDADDR {
		return ptrPath{root: int(lbn)}, nil
	}
	n := sb.NindirPerBlock()
	rel, span := lbn-NDADDR, n // block and block count of the range IB[k] roots
	for k := 0; k < NIADDR && rel >= 0; k++ {
		if rel < span {
			pp := ptrPath{depth: k + 1, root: k}
			for i := k; i >= 0; i-- {
				pp.idx[i] = rel % n
				rel /= n
			}
			return pp, nil
		}
		rel -= span
		span *= n
	}
	return ptrPath{}, fmt.Errorf("ufs: lbn %d out of range", lbn)
}

// indirBase returns the first logical block reached through IB[k];
// indirBase(NIADDR) is one past the last block a file can address.
func (sb *Superblock) indirBase(k int) int64 {
	base, span := int64(NDADDR), sb.NindirPerBlock()
	for ; k > 0; k-- {
		base += span
		span *= sb.NindirPerBlock()
	}
	return base
}

// indirSpan returns how many logical blocks one entry of a pointer
// block maps when the block sits height levels above the data (1 = its
// entries are data blocks).
func (sb *Superblock) indirSpan(height int) int64 {
	span := int64(1)
	for ; height > 1; height-- {
		span *= sb.NindirPerBlock()
	}
	return span
}

// BlkFrags returns how many fragments logical block lbn of a size-byte
// file holds: the fragment-rounded tail when lbn is the last block and
// direct, a whole block otherwise — fragments live only in the direct
// range, and a block the size does not reach counts as whole.
func (sb *Superblock) BlkFrags(size, lbn int64) int32 {
	if lbn < NDADDR {
		if f := int32(sb.BlkSize(size, lbn)) / sb.Fsize; f > 0 {
			return f
		}
	}
	return sb.Frag
}

// inRange reports whether fragments [fsbn, fsbn+n) all lie inside the
// file system. Addresses read off an image are untrusted; the sum is
// taken in 64 bits so one near the top of int32 cannot wrap into range.
func (sb *Superblock) inRange(fsbn, n int32) bool {
	return fsbn >= 0 && int64(fsbn)+int64(n) <= int64(sb.Size)
}
