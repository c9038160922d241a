package hypercube

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/mpc"
	"repro/internal/query"
)

// Router routes tuples to hypercube subcubes: a tuple of S_j fixes the
// coordinates of the dimensions of vars(S_j) by hashing and is replicated
// over every combination of the remaining dimensions (§3.1).
//
// The residual subcube of an atom is a fixed set of linear offsets, so it
// is enumerated once at router construction; per tuple, routing is one
// hash per bound dimension plus one append per destination — no odometer
// and no per-tuple scratch. Destinations caches the atom table of the last
// relation it routed, so a Router is not safe for concurrent use; it
// implements mpc.PerSenderRouter and mpc.Round gives each sender its own
// instance.
type Router struct {
	q      *query.Query
	grid   *hashing.Grid
	shares []int
	stride []int // linearization strides, stride[k-1] = 1
	atoms  map[string]*routerAtom
	// last-routed relation, so Destinations resolves the atom table with a
	// pointer comparison instead of a map lookup (senders route one
	// relation chunk at a time).
	lastRel  *data.Relation
	lastAtom *routerAtom
}

// routerAtom is the per-atom routing table: the hash dimensions of the
// atom's own variables (with their per-dimension hash seeds and linear
// strides precomputed) and the subcube offsets of the free dimensions, in
// lexicographic coordinate order.
type routerAtom struct {
	dims    []atomDim // one per attribute position
	offsets []int
}

// atomDim is one hashed dimension of an atom: attribute pos hashes with
// seed into share buckets contributing coord·stride to the linear index.
type atomDim struct {
	seed   uint64
	share  int
	stride int
}

// NewRouter builds the HC router for the given integer shares (one per
// query variable, product ≤ the cluster size).
func NewRouter(q *query.Query, shares []int, family *hashing.Family) *Router {
	if len(shares) != q.NumVars() {
		panic("hypercube: shares length must equal variable count")
	}
	k := len(shares)
	r := &Router{
		q:      q,
		grid:   hashing.NewGrid(shares, family),
		shares: append([]int(nil), shares...),
		stride: make([]int, k),
		atoms:  make(map[string]*routerAtom),
	}
	size := 1
	for i := k - 1; i >= 0; i-- {
		r.stride[i] = size
		size *= shares[i]
	}
	for _, a := range q.Atoms {
		ra := &routerAtom{dims: make([]atomDim, len(a.Vars))}
		for pos, v := range a.Vars {
			ra.dims[pos] = atomDim{
				seed:   family.DimSeed(v),
				share:  shares[v],
				stride: r.stride[v],
			}
		}
		fixed := make([]bool, k)
		for _, v := range a.Vars {
			fixed[v] = true
		}
		ra.offsets = enumerateFree(r.shares, r.stride, fixed)
		r.atoms[a.Name] = ra
	}
	return r
}

// enumerateFree lists the linear offsets of every combination of the free
// (non-fixed) dimensions in lexicographic coordinate order, last dimension
// fastest — the same order the routing odometer used to produce.
func enumerateFree(shares, stride []int, fixed []bool) []int {
	k := len(shares)
	n := 1
	for d := 0; d < k; d++ {
		if !fixed[d] {
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
			if fixed[d] {
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

// Size returns the number of hypercube cells (Π p_i).
func (r *Router) Size() int { return r.grid.Size() }

// ForSender implements mpc.PerSenderRouter: the copy shares the immutable
// grid and offset tables but owns a private relation-binding cache.
func (r *Router) ForSender() mpc.Router {
	c := *r
	c.lastRel, c.lastAtom = nil, nil
	return &c
}

// Destinations implements mpc.Router: the subcube of servers receiving the
// row, in lexicographic coordinate order, hashing the relation's columns in
// place with no allocations beyond growing dst. Relations outside the
// query are not routed: the database may carry relations the query does
// not name (the engine routes whatever the caller staged), and a panic
// here would kill a sender goroutine mid-round.
//
//skewlint:noalloc
func (r *Router) Destinations(rel *data.Relation, row int, dst []int) []int {
	ra := r.lastAtom
	if rel != r.lastRel || ra == nil {
		ra = r.atoms[rel.Name]
		if ra == nil {
			return dst
		}
		r.lastRel, r.lastAtom = rel, ra
	}
	cols := rel.Columns()
	lin := 0
	for pos := range ra.dims {
		d := &ra.dims[pos]
		lin += hashing.HashSeeded(d.seed, cols[pos][row], d.share) * d.stride
	}
	for _, off := range ra.offsets {
		dst = append(dst, lin+off)
	}
	return dst
}

// Config controls HyperCube share selection.
type Config struct {
	P    int    // number of servers
	Seed uint64 // hash-family seed; same seed → identical run

	// Shares overrides share selection entirely when non-nil.
	Shares []int
	// Strategy selects integer rounding (default RoundGreedy).
	Strategy Rounding
	// UseAfratiUllman selects the baseline total-load optimizer instead of
	// the paper's LP (ablation A2).
	UseAfratiUllman bool
	// EqualShares forces the skew-resilient p^{1/k} configuration
	// (Corollary 3.2 (ii)).
	EqualShares bool
}

// Plan is the §3.1 planner output: the selected shares with their LP
// prediction, lowered to the unified executor's PhysicalPlan; run it with
// exec.Run. Plans are reusable across executions (Engine's plan cache holds
// them).
type Plan struct {
	Shares        []int
	PredictedBits float64 // p^λ for the LP optimum λ (LP-based share selection only)
	Phys          *exec.PhysicalPlan
}

// BuildPlan selects shares for q over db (LP-optimal by default; cfg can
// force explicit shares, equal shares, or the Afrati–Ullman objective) and
// lowers them to a PhysicalPlan on the cfg.P-cell hypercube.
func BuildPlan(q *query.Query, db *data.Database, cfg Config) *Plan {
	if cfg.P < 1 {
		panic("hypercube: P must be >= 1")
	}
	pl := &Plan{}
	bits := atomBits(q, db)
	switch {
	case cfg.Shares != nil:
		pl.Shares = append([]int(nil), cfg.Shares...)
	case cfg.EqualShares:
		pl.Shares = EqualShares(q.NumVars(), cfg.P)
	case cfg.UseAfratiUllman:
		pl.Shares = RoundShares(AfratiUllmanExponents(q, bits, cfg.P), cfg.P, cfg.Strategy)
	default:
		e, lambda := OptimalExponents(q, bits, cfg.P)
		pl.PredictedBits = math.Pow(float64(cfg.P), lambda)
		pl.Shares = RoundShares(e, cfg.P, cfg.Strategy)
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
		// out-of-range destinations; exec.Run treats any error as a bug.
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
