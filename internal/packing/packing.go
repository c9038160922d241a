// Package packing computes fractional edge packings and covers of
// conjunctive queries — the combinatorial objects that characterize
// one-round communication cost in Beame–Koutris–Suciu (PODS 2014).
//
// A fractional edge packing of q assigns a weight u_j ≥ 0 to every atom so
// that for each variable x_i, Σ_{j: x_i ∈ S_j} u_j ≤ 1 (Eq. 2 of the
// paper). The package enumerates the vertices of this polytope exactly,
// extracts the non-dominated vertex set pk(q) of Theorem 3.6, computes the
// maximum packing value τ* (= fractional vertex covering number), fractional
// edge covers and the AGM size bound, and the saturating packings of
// residual queries used by the skew lower bounds of §4.3. The polytope
// depends on the query's shape alone, so its vertices are enumerated once
// per shape and memoized for the life of the process; every exported
// function hands out copies.
package packing

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"repro/internal/lp"
	"repro/internal/query"
	"repro/internal/rational"
)

// Polytope returns the constraint system (A, b) of the fractional edge
// packing polytope {u ≥ 0 : A·u ≤ b} of q: one row per variable
// (Σ_{j: x_i ∈ S_j} u_j ≤ 1) plus one cap row u_j ≤ 1 per atom. The caps
// are redundant for atoms that contain at least one variable and keep the
// polytope bounded for nullary atoms, which arise in residual queries; they
// never exclude a packing of the original query, where u_j ≤ 1 always holds.
func Polytope(q *query.Query) (*rational.Matrix, rational.Vector) {
	k, l := q.NumVars(), q.NumAtoms()
	a := rational.NewMatrix(k+l, l)
	b := rational.NewVector(k + l)
	for i := 0; i < k; i++ {
		for _, j := range q.AtomsWithVar(i) {
			a.SetInt(i, j, 1)
		}
		b[i].SetInt64(1)
	}
	for j := 0; j < l; j++ {
		a.SetInt(k+j, j, 1)
		b[k+j].SetInt64(1)
	}
	return a, b
}

// coverPolytope returns the fractional edge cover polytope
// {0 ≤ w ≤ 1 : Σ_{j: x_i ∈ S_j} w_j ≥ 1} of q in Polytope's form: each
// variable row negated, the atom caps kept. The caps keep it bounded and
// never cut off the minimum of an objective with non-negative weights.
func coverPolytope(q *query.Query) (*rational.Matrix, rational.Vector) {
	a, b := Polytope(q)
	for i := 0; i < q.NumVars(); i++ {
		for _, j := range q.AtomsWithVar(i) {
			a.SetInt(i, j, -1)
		}
		b[i].SetInt64(-1)
	}
	return a, b
}

// maxShapes bounds the vertex memo. Past it, a new shape is enumerated
// without being stored.
const maxShapes = 4096

// memo holds the vertices of every polytope enumerated so far, the packing
// polytope's and the cover polytope's of each shape apart. A
// shape's vertices are computed once and never written again, so readers
// share them; they must not leave the package uncopied.
var memo = struct {
	sync.Mutex
	shapes map[string][]rational.Vector
}{shapes: make(map[string][]rational.Vector)}

// vertices returns the memoized vertices of q's packing polytope.
func vertices(q *query.Query) []rational.Vector { return memoized(q, false) }

// memoized returns the vertices of q's packing or, with cover, cover
// polytope from the memo, enumerating them on a miss. Either polytope is a
// function of the query's shape alone — its variable count and each atom's
// variable list — so a residual query q_x and any renamed query of the same
// shape share one entry. The result is shared and read-only.
func memoized(q *query.Query, cover bool) []rational.Vector {
	key := fmt.Sprint(cover, q.NumVars())
	for _, a := range q.Atoms {
		key += fmt.Sprint(a.Vars)
	}
	memo.Lock()
	vs, ok := memo.shapes[key]
	memo.Unlock()
	if ok {
		return vs
	}
	polytope := Polytope
	if cover {
		polytope = coverPolytope
	}
	vs = lp.EnumerateVertices(polytope(q))
	memo.Lock()
	if len(memo.shapes) < maxShapes {
		memo.shapes[key] = vs
	}
	memo.Unlock()
	return vs
}

// cloneAll deep-copies vs, so no memo entry reaches a caller.
func cloneAll(vs []rational.Vector) []rational.Vector {
	out := make([]rational.Vector, len(vs))
	for i, v := range vs {
		out[i] = v.Clone()
	}
	return out
}

// NonDominated filters a vertex list down to the vectors not dominated by
// another vector in the list (u is dominated by u' when u' ≥ u
// componentwise and u' ≠ u). This is pk(q) when applied to q's vertices.
func NonDominated(vs []rational.Vector) []rational.Vector {
	var out []rational.Vector
	for i, u := range vs {
		dominated := false
		for j, w := range vs {
			if i != j && w.Dominates(u) && !w.Equal(u) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, u)
		}
	}
	return out
}

// PK returns pk(q): the non-dominated vertices of the packing polytope
// (Theorem 3.6). By that theorem, both the optimal HyperCube load and the
// lower bound are max_{u ∈ pk(q)} L(u, M, p).
func PK(q *query.Query) []rational.Vector {
	return cloneAll(NonDominated(vertices(q)))
}

// MaxPacking returns a maximum fractional edge packing of q and its value
// τ*, which equals the fractional vertex covering number of q.
func MaxPacking(q *query.Query) (rational.Vector, *big.Rat) {
	ones := rational.NewVector(q.NumAtoms())
	for j := range ones {
		ones[j].SetInt64(1)
	}
	u, val := lp.MaximizeOverVertices(vertices(q), ones)
	return u.Clone(), val
}

// Tau returns τ*(q) as a float for convenience.
func Tau(q *query.Query) float64 {
	_, v := MaxPacking(q)
	f, _ := v.Float64()
	return f
}

// AGMBound returns the Atserias–Grohe–Marx bound on the number of output
// tuples: min over fractional edge covers w of Π_j m_j^{w_j}. With every
// m_j ≥ 1, the minimum of Σ_j w_j·log(m_j) lies on a vertex of the cover
// polytope, so it is taken over the memoized vertices (+Inf when some
// variable is in no atom). Cardinalities must be ≥ 1.
func AGMBound(q *query.Query, m []float64) float64 {
	if len(m) != q.NumAtoms() {
		panic("packing: AGMBound cardinality count mismatch")
	}
	for _, mj := range m {
		if mj < 1 {
			panic("packing: AGMBound needs cardinalities >= 1")
		}
	}
	best := math.Inf(1)
	for _, w := range memoized(q, true) {
		exp := 0.0
		for j, wj := range w {
			f, _ := wj.Float64()
			exp += f * math.Log2(m[j])
		}
		best = math.Min(best, exp)
	}
	return math.Exp2(best)
}

// Saturates reports whether the packing u of the residual query q_x
// saturates every variable of x in the original query q: for each x_i ∈ x,
// Σ_{j: x_i ∈ vars(S_j) in q} u_j ≥ 1 (§4.3).
func Saturates(q *query.Query, u rational.Vector, x query.VarSet) bool {
	one := rational.One()
	for v := range x {
		sum := new(big.Rat)
		for _, j := range q.AtomsWithVar(v) {
			sum.Add(sum, u[j])
		}
		if sum.Cmp(one) < 0 {
			return false
		}
	}
	return true
}

// SaturatingPackings returns the residual-polytope vertices that saturate x,
// the candidate set for the lower bound L_x of Theorem 4.7. The result may
// be empty (then x contributes no bound).
func SaturatingPackings(q *query.Query, x query.VarSet) []rational.Vector {
	res, _ := q.Residual(x)
	var out []rational.Vector
	for _, u := range vertices(res) {
		if Saturates(q, u, x) {
			out = append(out, u.Clone())
		}
	}
	return out
}
