package join

import (
	"sync"

	"repro/internal/data"
)

// Scratch is one local join's working memory: the group-by index, the
// group each binding matched, the key probe, the atom order and flags, and
// two ping-pong arenas of intermediate bindings. It is dead once the join
// returns, so every local join takes one from a single sync.Pool, which the
// collector drains, and allocates only the answers it returns. A planning
// pass (stats.Pass) holds one per grouping until it is released. No pooled
// memory outlives its holder: no fragment, answer, plan or input.
type Scratch struct {
	Index  data.GroupIndex
	groups []int32
	probe  []int64
	order  []int
	split  []int
	flags  []bool // planOrder's used atoms, then bound variables
	arenas [2][]int64
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the pool. The caller owns it until
// PutScratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns s to the pool, first dropping its index's references
// to the relation it grouped, so that a parked Scratch pins no input.
// Nothing taken from s may be used afterwards.
func PutScratch(s *Scratch) {
	s.Index.Release()
	scratchPool.Put(s)
}

// Groups returns a buffer of n group ids with unspecified contents.
func (s *Scratch) Groups(n int) []int32 {
	s.groups = grow(s.groups, n)
	return s.groups
}

// Values returns a buffer of n values with unspecified contents.
func (s *Scratch) Values(n int) []int64 { return s.arena(0, n) }

// arena returns intermediate arena i (0 or 1) holding n values.
func (s *Scratch) arena(i, n int) []int64 {
	s.arenas[i] = grow(s.arenas[i], n)
	return s.arenas[i]
}

// grow returns buf resized to n, reallocated only if its capacity is short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
