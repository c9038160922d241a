// Package hashing provides the seeded per-attribute hash families and the
// multi-dimensional bucket grids used by the HyperCube algorithm, plus load
// measurement helpers for validating the hashing lemma (Lemma 3.1 /
// Appendix B of the paper).
//
// The paper assumes perfectly random hash functions; we substitute a
// splitmix64-based mixing family, which is statistically indistinguishable
// for these load-balance experiments and makes every run reproducible from
// an explicit seed.
package hashing

import (
	"fmt"

	"repro/internal/data"
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mix on 64 bits.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 exposes the splitmix64 finalizer for content hashing elsewhere in
// the system (e.g. database fingerprints).
func Mix64(z uint64) uint64 { return mix64(z) }

// Family is a seeded family of independent hash functions, one per
// "dimension" (query variable or attribute position). Different dims give
// independent-looking functions; the same (seed, dim, value) always hashes
// identically.
type Family struct {
	seed uint64
}

// NewFamily returns a hash family derived from seed.
func NewFamily(seed uint64) *Family { return &Family{seed: mix64(seed)} }

// Hash maps value into [0, buckets) using the dim-th function of the
// family. buckets must be ≥ 1.
func (f *Family) Hash(dim int, value int64, buckets int) int {
	if buckets < 1 {
		panic(fmt.Sprintf("hashing: buckets = %d", buckets))
	}
	if buckets == 1 {
		return 0
	}
	return int(mix64(f.DimSeed(dim)^uint64(value)) % uint64(buckets))
}

// DimSeed returns the dimension-specific seed that Hash folds the value
// into. Routing hot paths resolve it once per dimension at plan time and
// call HashSeeded per value, saving a mix per hash; Hash(dim, v, b) ==
// HashSeeded(DimSeed(dim), v, b) always.
func (f *Family) DimSeed(dim int) uint64 {
	return f.seed ^ mix64(uint64(dim)+0x51f7a54d)
}

// HashSeeded is Hash with the per-dimension seed precomputed via DimSeed.
func HashSeeded(dimSeed uint64, value int64, buckets int) int {
	if buckets == 1 {
		return 0
	}
	return int(mix64(dimSeed^uint64(value)) % uint64(buckets))
}

// Uint64 returns a raw 64-bit hash for (dim, value).
func (f *Family) Uint64(dim int, value int64) uint64 {
	return mix64(f.DimSeed(dim) ^ uint64(value))
}

// Grid is a p_1 × … × p_r bucket grid: attribute i of a tuple is hashed by
// the i-th function of the family into [p_i]. This is the hashing scheme of
// Lemma 3.1.
type Grid struct {
	Shares []int // p_1..p_r, all ≥ 1
	family *Family
	stride []int // linearization strides
	size   int
}

// NewGrid builds a grid with the given per-dimension share counts.
func NewGrid(shares []int, family *Family) *Grid {
	size := 1
	stride := make([]int, len(shares))
	for i := len(shares) - 1; i >= 0; i-- {
		if shares[i] < 1 {
			panic(fmt.Sprintf("hashing: share[%d] = %d", i, shares[i]))
		}
		stride[i] = size
		size *= shares[i]
	}
	return &Grid{Shares: append([]int(nil), shares...), family: family, stride: stride, size: size}
}

// Size returns Π p_i, the number of buckets.
func (g *Grid) Size() int { return g.size }

// Coords returns the per-dimension coordinates of a full tuple (one value
// per dimension).
func (g *Grid) Coords(t data.Tuple) []int {
	if len(t) != len(g.Shares) {
		panic("hashing: tuple arity does not match grid dimensions")
	}
	c := make([]int, len(t))
	for i, v := range t {
		c[i] = g.family.Hash(i, v, g.Shares[i])
	}
	return c
}

// Linear converts per-dimension coordinates to the linear bucket index.
func (g *Grid) Linear(coords []int) int {
	b := 0
	for i, c := range coords {
		if c < 0 || c >= g.Shares[i] {
			panic(fmt.Sprintf("hashing: coord %d out of range [0,%d)", c, g.Shares[i]))
		}
		b += c * g.stride[i]
	}
	return b
}

// LoadReport summarizes how a relation's tuples spread over grid buckets.
type LoadReport struct {
	Max      int     // maximum bucket load (tuples)
	Min      int     // minimum bucket load
	Mean     float64 // m / p
	Buckets  int
	Tuples   int
	PerDim   []int // max marginal load per dimension (L_j in Appendix B)
	Overflow float64
}

// MeasureLoads hashes every tuple of r onto the grid and reports the load
// distribution. The relation arity must equal the grid dimension count.
func MeasureLoads(r *data.Relation, g *Grid) LoadReport {
	loads := make([]int, g.Size())
	perDim := make([][]int, len(g.Shares))
	for i, s := range g.Shares {
		perDim[i] = make([]int, s)
	}
	r.Each(func(_ int, t data.Tuple) bool {
		c := g.Coords(t)
		loads[g.Linear(c)]++
		for i, ci := range c {
			perDim[i][ci]++
		}
		return true
	})
	rep := LoadReport{Buckets: g.Size(), Tuples: r.Size()}
	rep.Min = int(^uint(0) >> 1)
	for _, l := range loads {
		if l > rep.Max {
			rep.Max = l
		}
		if l < rep.Min {
			rep.Min = l
		}
	}
	if len(loads) == 0 {
		rep.Min = 0
	}
	rep.Mean = float64(r.Size()) / float64(g.Size())
	for i := range perDim {
		m := 0
		for _, l := range perDim[i] {
			if l > m {
				m = l
			}
		}
		rep.PerDim = append(rep.PerDim, m)
	}
	if rep.Mean > 0 {
		rep.Overflow = float64(rep.Max) / rep.Mean
	}
	return rep
}
