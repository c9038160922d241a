package hypercube

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/mpc"
	"repro/internal/query"
)

// sharesGrid is the grid of given integer shares, one per query variable.
func sharesGrid(q *query.Query, shares []int) Grid {
	if len(shares) != q.NumVars() {
		panic("hypercube: shares length must equal variable count")
	}
	g := Grid{Vars: make([]int, len(shares)), Shares: shares}
	for i, s := range shares {
		if s < 1 {
			panic(fmt.Sprintf("hypercube: share[%d] = %d", i, s))
		}
		g.Vars[i] = i
	}
	return g
}

// router is the HyperCube router on the grid (§3.1): a tuple of S_j fixes
// the coordinates of the dimensions of vars(S_j) by hashing and is
// replicated over every combination of the remaining dimensions, through
// the atom's Subcube.
func (g Grid) router(q *query.Query, family *hashing.Family) mpc.Routes {
	r := make(mpc.Routes, len(q.Atoms))
	for _, a := range q.Atoms {
		r[a.Name] = g.Subcube(a, family)
	}
	return r
}

// origin is the one block base of the §3.1 grid: the whole hypercube.
var origin = []int{0}

// Destinations implements mpc.Route for an atom routed over the whole grid:
// the subcube of servers receiving the row, in lexicographic coordinate
// order, hashing the relation's columns in place with no allocations beyond
// growing dst.
//
//skewlint:noalloc
func (s *Subcube) Destinations(cols [][]int64, row int, dst []int) []int {
	return s.Append(cols, row, origin, dst)
}

// Servers implements mpc.Route: an atom with no free dimension (one offset,
// 0) sends each row to the one cell its bound dimensions hash to, summed
// over the block one dimension at a time; any other atom answers -1. It
// keeps its own copy of Append's fold, since either form run on the other's
// input measures 1.4–1.7× slower; TestRouterEntryPointsAgree holds the two
// equal row for row.
//
//skewlint:noalloc
func (s *Subcube) Servers(cols [][]int64, lo, hi int, out []int32) {
	if len(s.offsets) > 1 {
		for i := range out {
			out[i] = -1
		}
		return
	}
	clear(out)
	for i := range s.bound {
		d := &s.bound[i]
		for j, v := range cols[d.pos][lo:hi] {
			out[j] += int32(hashing.HashSeeded(d.seed, v, d.share) * d.stride)
		}
	}
}

// CompileSpan implements mpc.Route: HyperCube routing hashes every row, so
// a Subcube spans no run and the engine routes its rows one by one.
func (s *Subcube) CompileSpan([][]int64, int, int64, *mpc.SpanRoute) bool { return false }

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

// Subcube builds the kernel of atom a on the grid (row-major, last
// dimension fastest): dimension d hashes with family's function of query
// variable Vars[d] when a carries that variable, and is free otherwise.
func (g Grid) Subcube(a query.Atom, family *hashing.Family) *Subcube {
	stride := make([]int, len(g.Shares))
	pos := make([]int, len(g.Shares)) // the attribute of a binding dimension d, -1 if free
	for d, size := len(g.Shares)-1, 1; d >= 0; d-- {
		stride[d] = size
		size *= g.Shares[d]
		pos[d] = slices.Index(a.Vars, g.Vars[d])
	}
	s := &Subcube{offsets: enumerateFree(g.Shares, stride, pos)}
	for d, share := range g.Shares {
		// A dimension of one cell always hashes to coordinate 0.
		if pos[d] >= 0 && share > 1 {
			s.bound = append(s.bound, boundDim{pos: pos[d], seed: family.DimSeed(g.Vars[d]), share: share, stride: stride[d]})
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

// Plan is the §3.1 planner output: the grid of the selected shares with
// its LP solution, lowered to the unified executor's PhysicalPlan; run it
// with exec.Execute(exec.OneRound(Phys), …). Plans are reusable across
// executions (Engine's plan cache holds them).
type Plan struct {
	Grid          Grid
	PredictedBits float64 // p^λ for the LP optimum λ (LP-based share selection only)
	Phys          *exec.PhysicalPlan
}

// BuildPlan selects shares for q over db (SolveGrid's LP-optimal grid,
// unless cfg forces explicit shares, EqualShares among them) and lowers them
// to a PhysicalPlan on the cfg.P-cell hypercube.
func BuildPlan(q *query.Query, db *data.Database, cfg Config) *Plan {
	if cfg.P < 1 {
		panic("hypercube: P must be >= 1")
	}
	pl := &Plan{}
	if cfg.Shares != nil {
		pl.Grid = sharesGrid(q, slices.Clone(cfg.Shares))
	} else {
		pl.Grid = SolveGrid(q, atomBits(q, db), cfg.P, nil, nil, 0)
		pl.PredictedBits = math.Pow(float64(cfg.P), pl.Grid.Lambda)
	}
	if got := pl.Grid.Cells(); got > cfg.P {
		panic(fmt.Sprintf("hypercube: shares %v use %d > p = %d servers", pl.Grid.Shares, got, cfg.P))
	}

	pl.Phys = &exec.PhysicalPlan{
		Strategy:  "hypercube",
		Virtual:   cfg.P,
		Physical:  cfg.P,
		Router:    pl.Grid.router(q, hashing.NewFamily(cfg.Seed)),
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
