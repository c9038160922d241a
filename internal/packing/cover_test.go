package packing

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/lp"
	"repro/internal/query"
	"repro/internal/rational"
)

// This file keeps the covering LP that AGMBound once solved per call, as
// the reference for the memoized cover-polytope vertices that replaced it,
// and MinCover, which reads the same vertices.

// MinCover returns a minimum fractional edge cover of q and its value ρ*:
// the cover-polytope vertex of least total weight.
func MinCover(q *query.Query) (rational.Vector, *big.Rat) {
	negOnes := rational.NewVector(q.NumAtoms())
	for j := range negOnes {
		negOnes[j].SetInt64(-1)
	}
	w, neg := lp.MaximizeOverVertices(memoized(q, true), negOnes)
	return w.Clone(), new(big.Rat).Neg(neg)
}

// agmBoundLP is AGMBound as AGMBound once computed it: the covering LP
// min Σ_j w_j·log(m_j) s.t. Σ_{j∋i} w_j ≥ 1, w ≥ 0, solved exactly.
func agmBoundLP(q *query.Query, m []float64) float64 {
	l := q.NumAtoms()
	p := lp.NewProblem(l)
	for j := 0; j < l; j++ {
		p.Objective[j] = rational.FromFloat(math.Log2(m[j]))
	}
	for i := 0; i < q.NumVars(); i++ {
		row := rational.NewVector(l)
		for _, j := range q.AtomsWithVar(i) {
			row[j].SetInt64(1)
		}
		p.AddConstraint(row, lp.GE, rational.One())
	}
	s := p.Solve()
	if s.Status != lp.Optimal {
		panic("packing: AGM LP not optimal: " + s.Status.String())
	}
	obj, _ := s.Objective.Float64()
	return math.Exp2(obj)
}

// TestAGMBoundMatchesLP holds the memoized AGMBound to the covering LP
// over the catalog and seeded random queries, at random cardinalities.
func TestAGMBoundMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for _, q := range memoQueries() {
		for trial := 0; trial < 4; trial++ {
			m := make([]float64, q.NumAtoms())
			for j := range m {
				m[j] = 1 + float64(rng.Int63n(1<<uint(rng.Intn(24))))
			}
			got, want := AGMBound(q, m), agmBoundLP(q, m)
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("%v m=%v: AGMBound = %v, covering LP %v", q, m, got, want)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Errorf("only %d instances checked", checked)
	}
}
