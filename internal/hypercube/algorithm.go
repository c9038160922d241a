package hypercube

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/query"
)

// Router routes tuples to hypercube subcubes: a tuple of S_j fixes the
// coordinates of the dimensions of vars(S_j) by hashing and is replicated
// over every combination of the remaining dimensions (§3.1), through the
// atom's Subcube. It holds only plan-time tables, so one instance serves
// every sender concurrently.
type Router struct {
	size  int // Π p_i, the number of hypercube cells
	names []string
	cubes []*Subcube // cubes[i] routes the atom named names[i]
}

// NewRouter builds the HC router for the given integer shares (one per
// query variable, product ≤ the cluster size).
func NewRouter(q *query.Query, shares []int, family *hashing.Family) *Router {
	if len(shares) != q.NumVars() {
		panic("hypercube: shares length must equal variable count")
	}
	vars := make([]int, len(shares))
	for i, s := range shares {
		if s < 1 {
			panic(fmt.Sprintf("hypercube: share[%d] = %d", i, s))
		}
		vars[i] = i
	}
	r := &Router{size: product(shares)}
	for _, a := range q.Atoms {
		pos := make([]int, len(shares))
		for i := range pos {
			pos[i] = -1
		}
		for p, v := range a.Vars {
			pos[v] = p
		}
		r.names = append(r.names, a.Name)
		r.cubes = append(r.cubes, NewSubcube(shares, vars, pos, family))
	}
	return r
}

// Size returns the number of hypercube cells (Π p_i).
func (r *Router) Size() int { return r.size }

// origin is the one block base of the §3.1 grid: the whole hypercube.
var origin = []int{0}

// Destinations implements mpc.Router: the subcube of servers receiving the
// row, in lexicographic coordinate order, hashing the relation's columns in
// place with no allocations beyond growing dst. Relations outside the
// query are not routed: the database may carry relations the query does
// not name (the engine routes whatever the caller staged), and a panic
// here would kill a sender goroutine mid-round.
//
//skewlint:noalloc
func (r *Router) Destinations(rel *data.Relation, row int, dst []int) []int {
	for i, name := range r.names {
		if name == rel.Name {
			return r.cubes[i].Append(rel.Columns(), row, origin, dst)
		}
	}
	return dst
}

// Subcube is the HyperCube routing of one atom over a grid of servers: the
// grid dimensions whose variables the atom carries are fixed by hashing the
// tuple, and the tuple is replicated over every combination of the free
// ones. The free dimensions' linear offsets are enumerated once, at plan
// time, so routing a tuple is one hash per bound dimension and one append
// per destination. §3.1 routes each atom through one Subcube over the whole
// hypercube; §4.2 routes it through one per bin combination, over every
// heavy assignment's block of that combination. A Subcube is immutable.
type Subcube struct {
	bound   []boundDim
	offsets []int // the free dimensions' offsets, last dimension fastest
}

// boundDim is one hashed dimension of a Subcube: attribute pos hashes with
// seed into share cells, contributing coord·stride to the linear index.
type boundDim struct {
	pos    int
	seed   uint64
	share  int
	stride int
}

// NewSubcube builds the kernel of one atom on the grid whose dimension d
// has shares[d] cells (row-major, last dimension fastest) and hashes with
// family's function of query variable vars[d]. pos[d] is the attribute of
// the atom that binds dimension d, or -1 when d is free.
func NewSubcube(shares, vars, pos []int, family *hashing.Family) *Subcube {
	stride := make([]int, len(shares))
	for d, size := len(shares)-1, 1; d >= 0; d-- {
		stride[d] = size
		size *= shares[d]
	}
	s := &Subcube{offsets: enumerateFree(shares, stride, pos)}
	for d := range shares {
		// A dimension of one cell always hashes to coordinate 0.
		if pos[d] >= 0 && shares[d] > 1 {
			s.bound = append(s.bound, boundDim{pos: pos[d], seed: family.DimSeed(vars[d]), share: shares[d], stride: stride[d]})
		}
	}
	return s
}

// Append appends, for every block base in bases, the servers of the
// subcube that row of the atom (its relation's columns cols, read in place)
// occupies: for each free-dimension offset in order, every base. It
// allocates nothing beyond growing dst.
//
//skewlint:noalloc
func (s *Subcube) Append(cols [][]int64, row int, bases, dst []int) []int {
	lin := 0
	for i := range s.bound {
		d := &s.bound[i]
		lin += hashing.HashSeeded(d.seed, cols[d.pos][row], d.share) * d.stride
	}
	for _, off := range s.offsets {
		for _, b := range bases {
			dst = append(dst, b+lin+off)
		}
	}
	return dst
}

// enumerateFree lists the linear offsets of every combination of the free
// dimensions (pos[d] < 0) in lexicographic coordinate order, last dimension
// fastest.
func enumerateFree(shares, stride, pos []int) []int {
	k := len(shares)
	n := 1
	for d := 0; d < k; d++ {
		if pos[d] < 0 {
			n *= shares[d]
		}
	}
	offsets := make([]int, 0, n)
	coords := make([]int, k)
	lin := 0
	for {
		offsets = append(offsets, lin)
		d := k - 1
		for ; d >= 0; d-- {
			if pos[d] >= 0 {
				continue
			}
			if coords[d]+1 < shares[d] {
				coords[d]++
				lin += stride[d]
				break
			}
			lin -= coords[d] * stride[d]
			coords[d] = 0
		}
		if d < 0 {
			return offsets
		}
	}
}

// Config controls HyperCube share selection.
type Config struct {
	P    int    // number of servers
	Seed uint64 // hash-family seed; same seed → identical run

	// Shares overrides share selection entirely when non-nil.
	Shares []int
}

// Plan is the §3.1 planner output: the selected shares with their LP
// prediction, lowered to the unified executor's PhysicalPlan; run it with
// exec.Execute(exec.OneRound(Phys), …). Plans are reusable across
// executions (Engine's plan cache holds them).
type Plan struct {
	Shares        []int
	PredictedBits float64 // p^λ for the LP optimum λ (LP-based share selection only)
	Phys          *exec.PhysicalPlan
}

// BuildPlan selects shares for q over db (LP-optimal, rounded by
// RoundToBudget, unless cfg forces explicit shares, EqualShares among them)
// and lowers them to a PhysicalPlan on the cfg.P-cell hypercube.
func BuildPlan(q *query.Query, db *data.Database, cfg Config) *Plan {
	if cfg.P < 1 {
		panic("hypercube: P must be >= 1")
	}
	pl := &Plan{}
	bits := atomBits(q, db)
	if cfg.Shares != nil {
		pl.Shares = append([]int(nil), cfg.Shares...)
	} else {
		e, lambda := OptimalExponents(q, bits, cfg.P)
		pl.PredictedBits = math.Pow(float64(cfg.P), lambda)
		ideal := make([]float64, len(e))
		for i, ei := range e {
			ideal[i] = math.Pow(float64(cfg.P), ei)
		}
		pl.Shares = RoundToBudget(ideal, cfg.P)
	}
	if got := product(pl.Shares); got > cfg.P {
		panic(fmt.Sprintf("hypercube: shares %v use %d > p = %d servers", pl.Shares, got, cfg.P))
	}

	pl.Phys = &exec.PhysicalPlan{
		Strategy:  "hypercube",
		Virtual:   cfg.P,
		Physical:  cfg.P,
		Router:    NewRouter(q, pl.Shares, hashing.NewFamily(cfg.Seed)),
		Relations: q.AtomNames(),
		Query:     q,
		// The share product is validated above, so HC routing cannot emit
		// out-of-range destinations; exec.Execute treats any error as a bug.
		PredictedBits: pl.PredictedBits,
	}
	return pl
}

// atomBits returns M_j in bits for each atom of q, looked up in db.
func atomBits(q *query.Query, db *data.Database) []float64 {
	bits := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		r := db.Get(a.Name)
		if r == nil {
			panic("hypercube: database missing relation " + a.Name)
		}
		b := r.Bits()
		if b <= 0 {
			b = 1 // empty relations: keep logs finite; the join is empty anyway
		}
		bits[j] = float64(b)
	}
	return bits
}
