package data

import "slices"

// Rows is N rows of K values each in one flat row-major array: row i is
// Vals[i*K : (i+1)*K]. It is how answers travel from a local join to the
// executor's output — no per-row header exists until AppendTuples writes
// one. N is carried explicitly, so K == 0 (N empty rows) and N == 0 are
// ordinary values; the zero Rows is empty.
type Rows struct {
	K, N int
	Vals []int64
}

// At returns row i as a read view into Vals: unlike the tuples AppendTuples
// writes, its capacity is not clipped, so callers must not append to it.
func (r Rows) At(i int) Tuple { return r.Vals[i*r.K : (i+1)*r.K] }

// AppendTuples appends one Tuple header per row to dst and returns it (nil
// stays nil when there are no rows). Every tuple is a full slice expression
// over its own K values — len == cap == K — so appending to one reallocates
// rather than overwriting its neighbour; all of them alias Vals, so
// retaining one retains the whole array.
func (r Rows) AppendTuples(dst []Tuple) []Tuple {
	base := len(dst)
	dst = slices.Grow(dst, r.N)[:base+r.N]
	out, k := dst[base:], r.K
	for i := range out {
		out[i] = r.Vals[i*k : (i+1)*k : (i+1)*k]
	}
	return dst
}
