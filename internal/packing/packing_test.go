package packing

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/rational"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

// IsPacking reports whether u is a feasible fractional edge packing of q.
func IsPacking(q *query.Query, u rational.Vector) bool {
	return nonNegative(q, u) && everyVarSum(q, u, func(c int) bool { return c <= 0 })
}

// IsCover reports whether u is a feasible fractional edge cover of q
// (Eq. 2 with ≥).
func IsCover(q *query.Query, u rational.Vector) bool {
	return nonNegative(q, u) && everyVarSum(q, u, func(c int) bool { return c >= 0 })
}

// IsTight reports whether u satisfies every variable constraint with
// equality; a tight packing is simultaneously a tight cover (§2.2).
func IsTight(q *query.Query, u rational.Vector) bool {
	return everyVarSum(q, u, func(c int) bool { return c == 0 })
}

func nonNegative(q *query.Query, u rational.Vector) bool {
	if len(u) != q.NumAtoms() {
		return false
	}
	for _, x := range u {
		if x.Sign() < 0 {
			return false
		}
	}
	return true
}

// everyVarSum reports whether ok holds for every variable's
// Σ_{j: x_i ∈ S_j} u_j compared against 1.
func everyVarSum(q *query.Query, u rational.Vector, ok func(cmp int) bool) bool {
	one := rational.One()
	for i := 0; i < q.NumVars(); i++ {
		sum := new(big.Rat)
		for _, j := range q.AtomsWithVar(i) {
			sum.Add(sum, u[j])
		}
		if !ok(sum.Cmp(one)) {
			return false
		}
	}
	return true
}

func TestPKTriangleMatchesExample37(t *testing.T) {
	// Example 3.7: pk(C3) has exactly four vertices:
	// (1/2,1/2,1/2), (1,0,0), (0,1,0), (0,0,1).
	pk := PK(query.Triangle())
	if len(pk) != 4 {
		t.Fatalf("|pk(C3)| = %d, want 4: %v", len(pk), pk)
	}
	want := []rational.Vector{
		{rat(1, 2), rat(1, 2), rat(1, 2)},
		rational.VectorFromInts(1, 0, 0),
		rational.VectorFromInts(0, 1, 0),
		rational.VectorFromInts(0, 0, 1),
	}
	for _, w := range want {
		found := false
		for _, v := range pk {
			if v.Equal(w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("pk(C3) missing %v", w)
		}
	}
}

func TestPKJoin2(t *testing.T) {
	// Join2 has packings (1,0) and (0,1); (0,0) dominated.
	pk := PK(query.Join2())
	if len(pk) != 2 {
		t.Fatalf("|pk(Join2)| = %d: %v", len(pk), pk)
	}
}

func TestPKCartesian(t *testing.T) {
	// Cartesian product of u relations: the only non-dominated vertex is
	// all-ones.
	pk := PK(query.Cartesian(3))
	if len(pk) != 1 || !pk[0].Equal(rational.VectorFromInts(1, 1, 1)) {
		t.Errorf("pk(cart3) = %v", pk)
	}
}

func TestPKPathL3(t *testing.T) {
	// L3 = S1(x1,x2), S2(x2,x3), S3(x3,x4). (1,0,1) must be a vertex
	// (§2.2 gives it as a tight feasible packing).
	pk := PK(query.Path(3))
	found := false
	for _, v := range pk {
		if v.Equal(rational.VectorFromInts(1, 0, 1)) {
			found = true
		}
	}
	if !found {
		t.Errorf("pk(L3) missing (1,0,1): %v", pk)
	}
}

func TestTauValues(t *testing.T) {
	cases := []struct {
		q    *query.Query
		want float64
	}{
		{query.Triangle(), 1.5},
		{query.Join2(), 1},
		{query.Cartesian(2), 2},
		{query.Cartesian(4), 4},
		{query.Path(3), 2},   // vertex (1,0,1)
		{query.Star(3), 1},   // all atoms share z
		{query.Cycle(4), 2},  // opposite edges
		{query.Path(2), 1.5}, // (1/2? no: L2 = S1(x1,x2),S2(x2,x3): (1,0),(0,1) value 1... and (1/2,1/2)? sum at x2 = 1 ok, value 1. τ*=1? Let me not guess wrong — computed below.
	}
	// Fix the L2 expectation analytically: constraints u1<=1, u1+u2<=1,
	// u2<=1. Max u1+u2 = 1. So τ*(L2)=1.
	cases[7].want = 1
	for _, c := range cases {
		if got := Tau(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("τ*(%s) = %v, want %v", c.q.Name, got, c.want)
		}
	}
}

func TestTauEqualsDualCoverForTightCases(t *testing.T) {
	// LP duality: max packing value = min fractional *vertex* cover.
	// For C3 the vertex cover number is 3/2; for C4 it is 2.
	if got := Tau(query.Triangle()); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("τ*(C3) = %v", got)
	}
	if got := Tau(query.Cycle(4)); math.Abs(got-2) > 1e-12 {
		t.Errorf("τ*(C4) = %v", got)
	}
}

func TestIsPackingAndCover(t *testing.T) {
	q := query.Triangle()
	half := rational.Vector{rat(1, 2), rat(1, 2), rat(1, 2)}
	if !IsPacking(q, half) {
		t.Error("(1/2,1/2,1/2) should be a packing of C3")
	}
	if !IsCover(q, half) {
		t.Error("(1/2,1/2,1/2) should be a cover of C3")
	}
	if !IsTight(q, half) {
		t.Error("(1/2,1/2,1/2) should be tight on C3")
	}
	ones := rational.VectorFromInts(1, 1, 1)
	if IsPacking(q, ones) {
		t.Error("(1,1,1) is not a packing of C3")
	}
	if !IsCover(q, ones) {
		t.Error("(1,1,1) is a cover of C3")
	}
	neg := rational.Vector{rat(-1, 2), rat(1, 2), rat(1, 2)}
	if IsPacking(q, neg) || IsCover(q, neg) {
		t.Error("negative weights accepted")
	}
	if IsPacking(q, rational.VectorFromInts(1)) {
		t.Error("wrong arity accepted")
	}
	if IsCover(q, rational.VectorFromInts(1)) {
		t.Error("wrong arity accepted")
	}
}

func TestTightPackingIsTightCover(t *testing.T) {
	// §2.2: every tight fractional edge packing is a tight fractional edge
	// cover. Verify on all tight vertices of catalog queries.
	for name, q := range query.Catalog() {
		for _, v := range Vertices(q) {
			if IsTight(q, v) {
				if !IsCover(q, v) {
					t.Errorf("%s: tight packing %v is not a cover", name, v)
				}
			}
		}
	}
}

func TestMinCoverTriangle(t *testing.T) {
	_, val := MinCover(query.Triangle())
	if val.Cmp(rat(3, 2)) != 0 {
		t.Errorf("ρ*(C3) = %v, want 3/2", val)
	}
}

func TestMinCoverStar(t *testing.T) {
	// Star_3: leaves x1..x3 each need their atom at weight 1: ρ* = 3.
	_, val := MinCover(query.Star(3))
	if val.Cmp(rat(3, 1)) != 0 {
		t.Errorf("ρ*(star3) = %v, want 3", val)
	}
}

func TestAGMBoundTriangle(t *testing.T) {
	// |C3| <= sqrt(m1 m2 m3) (Friedgut application in §2.3).
	got := AGMBound(query.Triangle(), []float64{100, 100, 100})
	want := math.Sqrt(100 * 100 * 100)
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("AGM(C3) = %v, want %v", got, want)
	}
}

func TestAGMBoundJoin(t *testing.T) {
	// Join2 cover needs u1=u2=1: bound m1*m2.
	got := AGMBound(query.Join2(), []float64{10, 20})
	if math.Abs(got-200)/200 > 1e-9 {
		t.Errorf("AGM(join2) = %v, want 200", got)
	}
}

func TestAGMBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad cardinalities")
		}
	}()
	AGMBound(query.Join2(), []float64{10})
}

func TestSaturatesJoin2(t *testing.T) {
	// Example 4.8: residual of Join2 on x={z} is S1(x), S2(y); its sole
	// maximal packing (1,1) saturates z.
	q := query.Join2()
	x := query.NewVarSet(2)
	sat := SaturatingPackings(q, x)
	found := false
	for _, u := range sat {
		if u.Equal(rational.VectorFromInts(1, 1)) {
			found = true
		}
	}
	if !found {
		t.Errorf("saturating packings of Join2 on {z}: %v, want (1,1)", sat)
	}
}

func TestSaturatesTriangleExample48(t *testing.T) {
	// Example 4.8: C3 with x={x1}: residual S1(x2),S2(x2,x3),S3(x3).
	// (1,0,1) saturates x1; (0,1,0) does not.
	q := query.Triangle()
	x := query.NewVarSet(0)
	if !Saturates(q, rational.VectorFromInts(1, 0, 1), x) {
		t.Error("(1,0,1) should saturate x1")
	}
	if Saturates(q, rational.VectorFromInts(0, 1, 0), x) {
		t.Error("(0,1,0) should not saturate x1")
	}
	sat := SaturatingPackings(q, x)
	found := false
	for _, u := range sat {
		if u.Equal(rational.VectorFromInts(1, 0, 1)) {
			found = true
		}
	}
	if !found {
		t.Errorf("saturating packings missing (1,0,1): %v", sat)
	}
}

func TestResidualVerticesNullaryAtomsBounded(t *testing.T) {
	// Residual of Join2 on all vars: both atoms nullary; cap keeps the
	// polytope bounded with max vertex (1,1).
	q := query.Join2()
	vs := ResidualVertices(q, query.NewVarSet(0, 1, 2))
	max := rational.VectorFromInts(1, 1)
	found := false
	for _, v := range vs {
		if v.Equal(max) {
			found = true
		}
		for _, c := range v {
			if c.Cmp(rat(1, 1)) > 0 {
				t.Errorf("vertex %v exceeds cap", v)
			}
		}
	}
	if !found {
		t.Errorf("missing (1,1) vertex: %v", vs)
	}
}

func TestNonDominatedFiltering(t *testing.T) {
	vs := []rational.Vector{
		rational.VectorFromInts(0, 0),
		rational.VectorFromInts(1, 0),
		rational.VectorFromInts(1, 1),
	}
	nd := NonDominated(vs)
	if len(nd) != 1 || !nd[0].Equal(rational.VectorFromInts(1, 1)) {
		t.Errorf("NonDominated = %v", nd)
	}
}

func TestNonDominatedKeepsIncomparable(t *testing.T) {
	vs := []rational.Vector{
		rational.VectorFromInts(1, 0),
		rational.VectorFromInts(0, 1),
	}
	if nd := NonDominated(vs); len(nd) != 2 {
		t.Errorf("NonDominated dropped incomparable vectors: %v", nd)
	}
}

// Property: every vertex of the packing polytope is a feasible packing, and
// every element of PK is a vertex.
func TestVerticesAreFeasibleProperty(t *testing.T) {
	queries := []*query.Query{
		query.Triangle(), query.Join2(), query.Path(3), query.Star(3), query.Cycle(4), query.Cartesian(3),
	}
	for _, q := range queries {
		vs := Vertices(q)
		if len(vs) == 0 {
			t.Errorf("%s: no vertices", q.Name)
		}
		for _, v := range vs {
			if !IsPacking(q, v) {
				t.Errorf("%s: vertex %v infeasible", q.Name, v)
			}
		}
		for _, v := range PK(q) {
			found := false
			for _, w := range vs {
				if w.Equal(v) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: pk element %v not a vertex", q.Name, v)
			}
		}
	}
}

// Property: τ* is monotone — the max packing value of a subquery (fewer
// atoms) is at most τ* of the full query for star queries where atoms are
// interchangeable.
func TestTauMonotoneStars(t *testing.T) {
	f := func(n uint8) bool {
		r := int(n%4) + 1
		return Tau(query.Star(r)) <= Tau(query.Star(r+1))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: AGM bound with all cardinalities m equals m^{ρ*}.
func TestAGMEqualCardinalitiesProperty(t *testing.T) {
	qs := []*query.Query{query.Triangle(), query.Join2(), query.Path(3), query.Star(2)}
	for _, q := range qs {
		m := 64.0
		ms := make([]float64, q.NumAtoms())
		for i := range ms {
			ms[i] = m
		}
		_, rho := MinCover(q)
		rhoF, _ := rho.Float64()
		want := math.Pow(m, rhoF)
		got := AGMBound(q, ms)
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("%s: AGM = %v, want m^ρ* = %v", q.Name, got, want)
		}
	}
}

// ResidualVertices returns the vertices of the packing polytope of the
// residual query q_x. Atom order (and hence weight indices) matches q.
func ResidualVertices(q *query.Query, x query.VarSet) []rational.Vector {
	res, _ := q.Residual(x)
	return Vertices(res)
}
