// Package hashing provides the seeded per-attribute hash families that
// every router hashes with. The HyperCube router (internal/hypercube)
// builds the multi-dimensional bucket grid of the hashing lemma (Lemma 3.1
// / Appendix B of the paper) from them, and its tests check that lemma.
//
// The paper assumes perfectly random hash functions; we substitute a
// splitmix64-based mixing family, which is statistically indistinguishable
// for these load-balance experiments and makes every run reproducible from
// an explicit seed.
package hashing

import "fmt"

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
