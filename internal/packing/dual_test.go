package packing

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/hypercube"
	"repro/internal/lp"
	"repro/internal/query"
	"repro/internal/rational"
)

// This file implements, and tests, the §3.3 duality machinery that proves
// Theorem 3.6: the dual LP (8) of the share-exponent LP (5), and the
// fractional vertex cover LP whose optimum equals τ* by LP duality
// ("the value of the maximal fractional edge packing ... is equal to the
// fractional vertex covering number for q").

// FractionalVertexCover solves min Σ_i w_i subject to, for every atom S_j,
// Σ_{i ∈ S_j} w_i ≥ 1 and w ≥ 0, returning an optimal cover and its value.
// By LP duality this value equals τ*(q).
func FractionalVertexCover(q *query.Query) (rational.Vector, *big.Rat) {
	k := q.NumVars()
	p := lp.NewProblem(k)
	for i := 0; i < k; i++ {
		p.Objective[i].SetInt64(1)
	}
	for _, a := range q.Atoms {
		row := rational.NewVector(k)
		for _, v := range a.Vars {
			row[v].SetInt64(1)
		}
		p.AddConstraint(row, lp.GE, rational.One())
	}
	s := p.Solve()
	if s.Status != lp.Optimal {
		panic("packing: vertex cover LP " + s.Status.String())
	}
	return s.X, s.Objective
}

// DualShareLP solves the dual (8) of the share-exponent LP (5) exactly:
//
//	maximize Σ_j μ_j f_j − f
//	s.t. Σ_j f_j ≤ 1;  ∀i: Σ_{j: i ∈ S_j} f_j − f ≤ 0;  f_j, f ≥ 0
//
// μ is given as exact rationals. By strong duality the optimum equals the
// primal λ; the transformation u_j = f_j/f of Lemma 3.8 maps the optimal
// dual solution onto a fractional edge packing, which is how Theorem 3.6
// identifies pk(q) as the witnesses of the bound.
func DualShareLP(q *query.Query, mu rational.Vector) (f rational.Vector, fScalar *big.Rat, objective *big.Rat) {
	l := q.NumAtoms()
	if len(mu) != l {
		panic("packing: mu length mismatch")
	}
	// Variables: f_0..f_{l-1}, then f.
	p := lp.NewProblem(l + 1)
	p.Maximize = true
	for j := 0; j < l; j++ {
		p.Objective[j].Set(mu[j])
	}
	p.Objective[l].SetInt64(-1)

	sum := rational.NewVector(l + 1)
	for j := 0; j < l; j++ {
		sum[j].SetInt64(1)
	}
	p.AddConstraint(sum, lp.LE, rational.One())
	for i := 0; i < q.NumVars(); i++ {
		row := rational.NewVector(l + 1)
		for _, j := range q.AtomsWithVar(i) {
			row[j].SetInt64(1)
		}
		row[l].SetInt64(-1)
		p.AddConstraint(row, lp.LE, rational.Zero())
	}
	s := p.Solve()
	if s.Status != lp.Optimal {
		panic("packing: dual share LP " + s.Status.String())
	}
	return s.X[:l], s.X[l], s.Objective
}

// PackingFromDual applies the Lemma 3.8 transformation u_j = f_j/f to a
// dual solution, returning the induced fractional edge packing (nil when
// f = 0, in which case the dual optimum does not correspond to a packing).
func PackingFromDual(f rational.Vector, fScalar *big.Rat) rational.Vector {
	if fScalar.Sign() == 0 {
		return nil
	}
	u := rational.NewVector(len(f))
	for j := range f {
		u[j].Quo(f[j], fScalar)
	}
	return u
}

func TestFractionalVertexCoverEqualsTau(t *testing.T) {
	// LP duality: the fractional vertex covering number equals τ* (§3.2).
	for _, q := range []*query.Query{
		query.Triangle(), query.Join2(), query.Path(3), query.Star(3),
		query.Cycle(4), query.Cycle(5), query.Cartesian(3),
	} {
		_, coverVal := FractionalVertexCover(q)
		_, tau := MaxPacking(q)
		if coverVal.Cmp(tau) != 0 {
			t.Errorf("%s: vertex cover %v != τ* %v", q.Name, coverVal, tau)
		}
	}
}

func TestFractionalVertexCoverC5(t *testing.T) {
	// Odd cycle C5: fractional vertex cover number 5/2.
	_, val := FractionalVertexCover(query.Cycle(5))
	if val.Cmp(big.NewRat(5, 2)) != 0 {
		t.Errorf("C5 cover = %v, want 5/2", val)
	}
}

func TestDualShareLPStrongDuality(t *testing.T) {
	// The dual optimum (8) must equal the primal λ from LP (5) for a range
	// of statistics — the numerical heart of Theorem 3.6's proof.
	cases := []struct {
		q    *query.Query
		bits []float64
	}{
		{query.Triangle(), []float64{1 << 18, 1 << 18, 1 << 18}},
		{query.Triangle(), []float64{1 << 22, 1 << 12, 1 << 15}},
		{query.Join2(), []float64{1 << 20, 1 << 13}},
		{query.Path(3), []float64{1 << 14, 1 << 19, 1 << 16}},
		{query.Star(3), []float64{1 << 15, 1 << 16, 1 << 17}},
	}
	p := 64
	logP := math.Log(float64(p))
	for _, c := range cases {
		_, lambda := hypercube.OptimalExponents(c.q, c.bits, p)
		mu := rational.NewVector(c.q.NumAtoms())
		for j, bits := range c.bits {
			mu[j] = rational.FromFloat(math.Log(bits) / logP)
		}
		_, _, dualObj := DualShareLP(c.q, mu)
		dualF, _ := dualObj.Float64()
		if math.Abs(dualF-lambda) > 1e-9 {
			t.Errorf("%s: dual %v != primal λ %v", c.q.Name, dualF, lambda)
		}
	}
}

func TestPackingFromDualIsPacking(t *testing.T) {
	// Lemma 3.8: the transformation u = f/f maps dual solutions to
	// feasible fractional edge packings.
	q := query.Triangle()
	mu := rational.Vector{
		rational.New(3, 2), rational.New(3, 2), rational.New(3, 2),
	}
	f, fScalar, _ := DualShareLP(q, mu)
	u := PackingFromDual(f, fScalar)
	if u == nil {
		t.Fatal("dual had f = 0")
	}
	if !IsPacking(q, u) {
		t.Errorf("transformed dual %v is not a packing", u)
	}
	// For symmetric C3 with μ > 1 the packing should be the (1/2,1/2,1/2)
	// vertex (the one maximizing L(u,M,p) at equal sizes).
	half := rational.Vector{rational.New(1, 2), rational.New(1, 2), rational.New(1, 2)}
	if !u.Equal(half) {
		t.Errorf("dual packing = %v, want (1/2,1/2,1/2)", u)
	}
}

func TestPackingFromDualZeroScalar(t *testing.T) {
	if PackingFromDual(rational.NewVector(2), new(big.Rat)) != nil {
		t.Error("f = 0 should map to nil")
	}
}

func TestDualShareLPPanicsOnBadMu(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	DualShareLP(query.Join2(), rational.NewVector(1))
}
