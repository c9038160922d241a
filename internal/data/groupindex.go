package data

import (
	"fmt"
	"math"

	"repro/internal/hashing"
)

// GroupIndex groups the rows of one relation by a list of key columns — the
// one group-by kernel under every local join and the residual lower bounds.
//
// An open-addressing table of int32 slots maps the hash of a row's key
// values to a group id; a hit is verified against the key columns of the
// group's first row, so keys of any width (zero included) work and nothing
// is boxed into a Key. Groups are numbered in first-occurrence order and
// stored CSR-style: the rows of group g are rows[start[g]:start[g+1]],
// ascending.
//
// The zero value is ready to use, and Build may be called any number of
// times: a warm index (one that has seen a relation at least as large)
// rebuilds without allocating — the local joins keep theirs in a pool. The
// index reads the relation's columns in place, so it is valid only until
// the relation is next mutated, it must not be shared by concurrent Builds,
// and a kept index pins the relation until Release.
type GroupIndex struct {
	cols  [][]int64 // key columns, in the caller's order
	slots []int32   // group id + 1; 0 = empty; len is a power of two
	first []int32   // first (lowest) row of each group
	start []int32   // CSR offsets into rows; len Groups()+1
	rows  []int32   // row ids, group by group
	gid   []int32   // Build scratch: group of each row
}

// Build indexes rel by the attribute positions keyCols (which may repeat or
// be empty: with no key columns every row falls in the one group). It
// panics if rel has more rows than an int32 row id can name.
func (x *GroupIndex) Build(rel *Relation, keyCols []int) {
	n := rel.Size()
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("data: %s: GroupIndex over %d rows exceeds int32 row ids", rel.Name, n))
	}
	x.cols = x.cols[:0]
	for _, a := range keyCols {
		x.cols = append(x.cols, rel.Column(a))
	}
	// At most half full, so probe sequences stay short and always end.
	size := 8
	for size < 2*n {
		size <<= 1
	}
	if cap(x.slots) < size {
		x.slots = make([]int32, size)
	} else {
		x.slots = x.slots[:size]
		clear(x.slots)
	}
	if cap(x.gid) < n {
		// Sized for the worst case of n singleton groups, so that pass 1
		// never regrows first or start.
		x.gid = make([]int32, n)
		x.rows = make([]int32, n)
		x.first = make([]int32, 0, n)
		x.start = make([]int32, 0, n+2)
	}
	x.gid, x.rows = x.gid[:n], x.rows[:n]

	// Pass 1: assign group ids and count. Group g's size accumulates two
	// slots ahead, at start[g+2], so that one prefix sum leaves its begin
	// offset at start[g+1] — the fill cursor — and the fill itself leaves
	// every offset in its final place.
	mask := uint32(size - 1)
	x.first = x.first[:0]
	x.start = append(x.start[:0], 0, 0)
	for i := 0; i < n; i++ {
		s := uint32(x.hashRow(i)) & mask
		for {
			g := x.slots[s] - 1
			if g < 0 {
				g = int32(len(x.first))
				x.slots[s] = g + 1
				x.first = append(x.first, int32(i))
				x.start = append(x.start, 0)
			} else if !x.sameKey(int(x.first[g]), i) {
				s = (s + 1) & mask
				continue
			}
			x.gid[i] = g
			x.start[g+2]++
			break
		}
	}
	for g := 2; g < len(x.start); g++ {
		x.start[g] += x.start[g-1]
	}
	// Pass 2: scatter the row ids; ascending i keeps each group ascending.
	for i, g := range x.gid {
		x.rows[x.start[g+1]] = int32(i)
		x.start[g+1]++
	}
	x.start = x.start[:len(x.first)+1]
}

// mixKey folds one key value into a running hash: xor, then the splitmix64
// finalizer, so every input bit reaches the low bits the table indexes by.
func mixKey(h uint64, v int64) uint64 { return hashing.Mix64(h ^ uint64(v)) }

func (x *GroupIndex) hashRow(i int) uint64 {
	var h uint64
	for _, col := range x.cols {
		h = mixKey(h, col[i])
	}
	return h
}

func (x *GroupIndex) sameKey(i, j int) bool {
	for _, col := range x.cols {
		if col[i] != col[j] {
			return false
		}
	}
	return true
}

// Release drops the index's references to the columns it was built over;
// Build it again before the next Lookup.
func (x *GroupIndex) Release() {
	clear(x.cols[:cap(x.cols)])
	x.cols = x.cols[:0]
}

// Lookup returns the group whose rows carry key (one value per key column,
// in Build's order), or -1 if no row does. The index must have been built.
//
//skewlint:noalloc
func (x *GroupIndex) Lookup(key []int64) int {
	var h uint64
	for _, v := range key {
		h = mixKey(h, v)
	}
	mask := uint32(len(x.slots) - 1)
probe:
	for s := uint32(h) & mask; ; s = (s + 1) & mask {
		g := x.slots[s] - 1
		if g < 0 {
			return -1
		}
		r := x.first[g]
		for a, col := range x.cols {
			if col[r] != key[a] {
				continue probe
			}
		}
		return int(g)
	}
}

// LookupRow is Lookup of the key that row carries in cols at the positions
// keyCols, read in place.
//
//skewlint:noalloc
func (x *GroupIndex) LookupRow(cols [][]int64, keyCols []int, row int) int {
	var h uint64
	for _, a := range keyCols {
		h = mixKey(h, cols[a][row])
	}
	mask := uint32(len(x.slots) - 1)
probe:
	for s := uint32(h) & mask; ; s = (s + 1) & mask {
		g := x.slots[s] - 1
		if g < 0 {
			return -1
		}
		r := x.first[g]
		for i, col := range x.cols {
			if col[r] != cols[keyCols[i]][row] {
				continue probe
			}
		}
		return int(g)
	}
}

// Groups returns the number of distinct keys. Group ids are 0..Groups()-1
// in order of each key's first row.
func (x *GroupIndex) Groups() int { return len(x.first) }

// Count returns the number of rows in group g; 0 for the -1 of a failed
// Lookup.
func (x *GroupIndex) Count(g int) int {
	if g < 0 {
		return 0
	}
	return int(x.start[g+1] - x.start[g])
}

// Rows returns the row ids of group g in ascending order (nil for -1). The
// slice aliases the index and is valid until the next Build.
func (x *GroupIndex) Rows(g int) []int32 {
	if g < 0 {
		return nil
	}
	return x.rows[x.start[g]:x.start[g+1]]
}

// Rep returns the representative of group g: its first (lowest) row.
func (x *GroupIndex) Rep(g int) int { return int(x.first[g]) }
