package bounds

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/packing"
	"repro/internal/query"
	"repro/internal/workload"
)

func approx(a, b, tol float64) bool {
	if b == 0 {
		return math.Abs(a) < tol
	}
	return math.Abs(a-b)/math.Abs(b) < tol
}

func TestK(t *testing.T) {
	if got := K([]float64{1, 1}, []float64{10, 20}); got != 200 {
		t.Errorf("K = %v", got)
	}
	if got := K([]float64{0.5, 0.5}, []float64{4, 9}); !approx(got, 6, 1e-12) {
		t.Errorf("K = %v, want 6", got)
	}
	// Zero weight ignores the relation entirely (even size 0).
	if got := K([]float64{0, 1}, []float64{0, 5}); got != 5 {
		t.Errorf("K with zero weight = %v", got)
	}
}

func TestL(t *testing.T) {
	// L((1,1), (M,M), p) = (M²/p)^{1/2}.
	got := L([]float64{1, 1}, []float64{100, 100}, 4)
	if !approx(got, math.Sqrt(100*100/4.0), 1e-12) {
		t.Errorf("L = %v", got)
	}
	if L([]float64{0, 0}, []float64{10, 10}, 4) != 0 {
		t.Error("zero packing should bound nothing")
	}
}

func TestSimpleLowerTriangleExample37(t *testing.T) {
	// Example 3.7's table: four packings, four bounds.
	q := query.Triangle()
	p := 64
	m1, m2, m3 := 4096.0, 4096.0, 4096.0
	best, table := SimpleLower(q, []float64{m1, m2, m3}, p)
	if len(table) != 4 {
		t.Fatalf("table has %d rows, want 4", len(table))
	}
	wantHalf := math.Pow(m1*m2*m3, 1.0/3) / math.Pow(float64(p), 2.0/3)
	wantUnit := m1 / float64(p)
	if !approx(best, math.Max(wantHalf, wantUnit), 1e-9) {
		t.Errorf("best = %v, want max(%v, %v)", best, wantHalf, wantUnit)
	}
	// Equal sizes: the (1/2,1/2,1/2) row gives (M³)^{1/3}/p^{2/3} = M/p^{2/3},
	// beating M/p: table must be sorted with it first.
	if !approx(table[0].Bound, wantHalf, 1e-9) {
		t.Errorf("table[0] = %v, want %v", table[0].Bound, wantHalf)
	}
}

func TestSimpleLowerUnequalTriangle(t *testing.T) {
	// When one relation is tiny, a unit packing can win.
	q := query.Triangle()
	p := 64
	best, _ := SimpleLower(q, []float64{1 << 20, 64, 64}, p)
	want := float64(1<<20) / 64 // packing (1,0,0)
	if !approx(best, want, 1e-9) {
		t.Errorf("best = %v, want %v (unit packing)", best, want)
	}
}

func TestTheorem36LPEqualsVertexMax(t *testing.T) {
	// L_upper (LP) = L_lower (vertex max) for a suite of queries and
	// random-ish statistics.
	cases := []struct {
		q    *query.Query
		bits []float64
	}{
		{query.Triangle(), []float64{1 << 16, 1 << 16, 1 << 16}},
		{query.Triangle(), []float64{1 << 20, 1 << 12, 1 << 14}},
		{query.Join2(), []float64{1 << 18, 1 << 13}},
		{query.Path(3), []float64{1 << 15, 1 << 17, 1 << 13}},
		{query.Star(3), []float64{1 << 14, 1 << 15, 1 << 16}},
		{query.Cartesian(2), []float64{1 << 15, 1 << 18}},
		{query.Cycle(4), []float64{1 << 15, 1 << 15, 1 << 15, 1 << 15}},
	}
	for _, c := range cases {
		for _, p := range []int{16, 64, 1024} {
			_, lambda := hypercube.OptimalExponents(c.q, c.bits, p)
			lpB, vtxB := LPLowerEqualsVertexMax(c.q, c.bits, p, lambda)
			if !approx(lpB, vtxB, 1e-6) {
				t.Errorf("%s p=%d: LP bound %v != vertex bound %v", c.q.Name, p, lpB, vtxB)
			}
		}
	}
}

func TestSpaceExponentEqualSizes(t *testing.T) {
	// Equal sizes: load M/p^{1/τ*}, so ε = 1 − 1/τ*.
	cases := []struct {
		q   *query.Query
		tau float64
	}{
		{query.Triangle(), 1.5},
		{query.Join2(), 1},
		{query.Cartesian(2), 2},
		{query.Cycle(4), 2},
	}
	for _, c := range cases {
		bits := make([]float64, c.q.NumAtoms())
		for j := range bits {
			bits[j] = 1 << 20
		}
		got := SpaceExponent(c.q, bits, 64)
		want := 1 - 1/c.tau
		if !approx(got, want, 1e-9) {
			t.Errorf("ε(%s) = %v, want %v", c.q.Name, got, want)
		}
	}
}

func TestSpaceExponentBroadcastRelation(t *testing.T) {
	// A relation below M/p is broadcast: it should not worsen ε.
	q := query.Join2()
	p := 64
	big := float64(int64(1) << 30)
	eps := SpaceExponent(q, []float64{big, big / float64(p*4)}, p)
	// With S2 broadcast the query is effectively a single relation scan:
	// load M/p, ε = 0.
	if !approx(eps, 0, 1e-9) {
		t.Errorf("ε = %v, want 0", eps)
	}
}

// TestSpaceExponentUnequalSizes checks §3.3 under M_j = M/p^{ν_j} with no
// relation below M/p: ε = 1 − min_u (Σ_j ν_j u_j + 1)/Σ_j u_j over pk(q),
// which is 1 + log_p(L_lower/M), across the catalog and several ν.
func TestSpaceExponentUnequalSizes(t *testing.T) {
	const bigM = float64(1 << 30)
	patterns := [][]float64{{0}, {0, 1.0 / 3}, {0, 0, 0.5}, {0, 0.9}, {0, 0.25, 0.6}}
	for _, name := range query.CatalogNames() {
		q := query.Catalog()[name]
		for _, pat := range patterns {
			for _, p := range []int{64, 4096} {
				nu := make([]float64, q.NumAtoms())
				bits := make([]float64, q.NumAtoms())
				for j := range nu {
					nu[j] = pat[j%len(pat)]
					bits[j] = bigM / math.Pow(float64(p), nu[j])
				}
				vStar := math.Inf(1)
				for _, vtx := range packing.PK(q) {
					dot, total := 0.0, 0.0
					for j, u := range vtx.Floats() {
						dot += nu[j] * u
						total += u
					}
					vStar = math.Min(vStar, (dot+1)/total)
				}
				lower, _ := SimpleLower(q, bits, p)
				fromLower := 1 + math.Log(lower/bigM)/math.Log(float64(p))
				got := SpaceExponent(q, bits, p)
				if math.Abs(got-(1-vStar)) > 1e-9 || math.Abs(got-fromLower) > 1e-9 {
					t.Errorf("%s ν=%v p=%d: ε = %v, want 1 − v* = %v = 1 + log_p(L_lower/M) = %v",
						name, nu, p, got, 1-vStar, fromLower)
				}
			}
		}
	}
	// The two §3.3 triangle instances worked by hand.
	for _, c := range []struct {
		nu   []float64
		want float64
	}{{[]float64{0, 1.0 / 3, 1.0 / 3}, 1.0 / 9}, {[]float64{0, 0, 0.5}, 1.0 / 6}} {
		p := 4096
		bits := make([]float64, 3)
		for j, v := range c.nu {
			bits[j] = bigM / math.Pow(float64(p), v)
		}
		if got := SpaceExponent(query.Triangle(), bits, p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("C3 ν=%v: ε = %v, want %v", c.nu, got, c.want)
		}
	}
}

func TestExpectedAnswers(t *testing.T) {
	// Lemma A.1: E|q(I)| = n^{k−a} Π m_j. Triangle: k=3, a=6.
	q := query.Triangle()
	n := 100.0
	m := []float64{1000, 1000, 1000}
	got := ExpectedAnswers(q, m, n)
	want := math.Pow(n, -3) * 1e9
	if !approx(got, want, 1e-12) {
		t.Errorf("E = %v, want %v", got, want)
	}
}

// TestTheorem35KnowledgeBound checks the counting step of Theorem 3.5 (1)
// (Appendix A) on a dense triangle: a server that holds a uniform fraction
// f of each relation knows an answer only when it holds all of its tuples,
// so it knows ≈ f^3 of the answers. That stays within the budget
// (L/c)^u/K(u,M) · |q(I)| the theorem grants a load-L server, and decays
// with f at a log-log slope of at least u = 3/2.
func TestTheorem35KnowledgeBound(t *testing.T) {
	const m = 3000
	q := query.Triangle()
	specs := make([]workload.AtomSpec, 3)
	for j, a := range q.Atoms {
		specs[j] = workload.AtomSpec{Name: a.Name, Arity: 2, M: m, Domain: 256}
	}
	db := workload.ForQuery(specs, 41)
	answers := float64(len(join.Join(q, join.FromDatabase(db))))
	if answers == 0 {
		t.Fatal("empty join: raise the density")
	}
	u, uTotal := []float64{0.5, 0.5, 0.5}, 1.5
	bitsM := make([]float64, 3)
	for j, a := range q.Atoms {
		bitsM[j] = float64(db.MustGet(a.Name).Bits())
	}
	kUM := K(u, bitsM)
	const c = 1.0 / 6 // c = (a_j − δ)/(3a_j) with a_j = 2, δ = 1
	rng := rand.New(rand.NewSource(43))
	fs := []float64{0.2, 0.4, 0.8}
	known := make([]float64, len(fs))
	for i, f := range fs {
		sub := make(map[string]*data.Relation)
		loadBits := 0.0
		for _, a := range q.Atoms {
			rel := db.MustGet(a.Name)
			keep := data.NewRelation(a.Name, rel.Arity, rel.Domain)
			rel.Each(func(_ int, tu data.Tuple) bool {
				if rng.Float64() < f {
					keep.Add(tu...)
				}
				return true
			})
			sub[a.Name] = keep
			loadBits += float64(keep.Bits())
		}
		known[i] = float64(len(join.Join(q, sub)))
		if budget := math.Pow(loadBits, uTotal) / (math.Pow(c, uTotal) * kUM) * answers; known[i] > budget {
			t.Errorf("f = %.1f: knows %.0f answers, above the budget %.0f", f, known[i], budget)
		}
	}
	last := len(fs) - 1
	slope := math.Log(known[last]/known[0]) / math.Log(fs[last]/fs[0])
	if slope < uTotal {
		t.Errorf("knowledge decays at log-log slope %.2f, want ≥ u = %.2f", slope, uTotal)
	}
	t.Logf("known answers %v of %.0f; log-log slope %.2f", known, answers, slope)
}

func TestResidualLowerJoinExample48(t *testing.T) {
	// Example 4.8: for x={z}, bound = sqrt(Σ_h M1(h)·M2(h) / p).
	p := 16
	s1 := workload.PlantedHeavy("S1", 512, 100000, 1, []workload.HeavySpec{
		{Value: 1, Count: 128}, {Value: 2, Count: 64},
	}, 1)
	s2 := workload.PlantedHeavy("S2", 512, 100000, 1, []workload.HeavySpec{
		{Value: 1, Count: 128}, {Value: 2, Count: 32},
	}, 2)
	db := data.NewDatabase()
	db.Put(s1)
	db.Put(s2)
	q := query.Join2()
	got, table := ResidualLower(q, query.NewVarSet(2), db, p)
	if len(table) == 0 {
		t.Fatal("no saturating packings")
	}
	// Compute Σ_h M1(h)M2(h) by brute force over shared z values.
	bitsW := float64(s1.BitsPerTuple())
	sum := 0.0
	f1 := map[int64]float64{}
	s1.Each(func(_ int, tu data.Tuple) bool { f1[tu[1]]++; return true })
	f2 := map[int64]float64{}
	s2.Each(func(_ int, tu data.Tuple) bool { f2[tu[1]]++; return true })
	for z, c1 := range f1 {
		sum += (c1 * bitsW) * (f2[z] * bitsW)
	}
	want := math.Sqrt(sum / float64(p))
	if !approx(got, want, 1e-9) {
		t.Errorf("residual bound = %v, want %v", got, want)
	}
}

func TestResidualLowerTriangleExample48(t *testing.T) {
	// C3 with x={x1}: bound sqrt(Σ_h m1(h)·m3(h)/p) from packing (1,0,1).
	p := 16
	q := query.Triangle()
	s1 := workload.PlantedHeavy("S1", 256, 100000, 0, []workload.HeavySpec{{Value: 5, Count: 64}}, 3)
	s2 := workload.Uniform("S2", 2, 256, 1000, 4)
	s3 := workload.PlantedHeavy("S3", 256, 100000, 1, []workload.HeavySpec{{Value: 5, Count: 64}}, 5)
	db := data.NewDatabase()
	db.Put(s1)
	db.Put(s2)
	db.Put(s3)
	got, table := ResidualLower(q, query.NewVarSet(0), db, p)
	if got <= 0 {
		t.Fatal("no bound")
	}
	// The (1,0,1) packing must appear in the table.
	found := false
	for _, row := range table {
		if row.U[0] == 1 && row.U[1] == 0 && row.U[2] == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing (1,0,1) packing in %v", table)
	}
}

func TestResidualLowerNoSaturation(t *testing.T) {
	// For Join2 and x={x}, the residual polytope's saturating packings
	// require Σ_{j∋x} u_j ≥ 1, which only S1 provides; check the function
	// returns something sane (possibly zero if nothing saturates).
	q := query.Join2()
	db := data.NewDatabase()
	db.Put(workload.Uniform("S1", 2, 100, 1000, 1))
	db.Put(workload.Uniform("S2", 2, 100, 1000, 2))
	b, _ := ResidualLower(q, query.NewVarSet(0), db, 4)
	if b < 0 {
		t.Error("negative bound")
	}
}

func TestBestLowerPrefersResidualUnderSkew(t *testing.T) {
	// With a single shared heavy z, the residual bound sqrt(m1(h)m2(h)/p)
	// exceeds the simple bound max(M1,M2)/p.
	p := 16
	m := 1024
	s1 := workload.SingleValue("S1", 2, m, 100000, 1, 7, 1)
	s2 := workload.SingleValue("S2", 2, m, 100000, 1, 7, 2)
	db := data.NewDatabase()
	db.Put(s1)
	db.Put(s2)
	q := query.Join2()
	best, desc := BestLower(q, db, p, 0)
	bitsW := float64(s1.BitsPerTuple())
	wantResidual := math.Sqrt(float64(m) * bitsW * float64(m) * bitsW / float64(p))
	wantSimple := float64(m) * bitsW / float64(p)
	if wantResidual <= wantSimple {
		t.Fatal("test setup wrong: residual should dominate")
	}
	if !approx(best, wantResidual, 1e-9) {
		t.Errorf("best = %v (%s), want %v", best, desc, wantResidual)
	}
	if desc == "simple (x = ∅)" {
		t.Errorf("winner should be residual, got %s", desc)
	}
}

func TestBestLowerUniformPrefersSimple(t *testing.T) {
	// Skew-free data: the simple bound should win (or tie).
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, 1024, 100000, 1))
	db.Put(workload.Matching("S2", 2, 1024, 100000, 2))
	q := query.Join2()
	best, _ := BestLower(q, db, 16, 0)
	bitsW := float64(db.MustGet("S1").BitsPerTuple())
	simple := 1024 * bitsW / 16
	// Matching data: residual Σ_h M1(h)M2(h) = Σ_h (bitsW)² over shared
	// values ≤ m·bitsW², sqrt(m/p)·bitsW ≪ simple.
	if best < simple-1e-9 {
		t.Errorf("best = %v below simple bound %v", best, simple)
	}
	if best > simple*1.01 {
		t.Errorf("best = %v, expected ≈ simple %v on skew-free data", best, simple)
	}
}

func TestPanics(t *testing.T) {
	q := query.Join2()
	for _, f := range []func(){
		func() { K([]float64{1}, []float64{1, 2}) },
		func() { SimpleLower(q, []float64{1}, 4) },
		func() { ExpectedAnswers(q, []float64{1}, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestResidualLowerTwoVariableSet(t *testing.T) {
	// Star(2): q(z,x1,x2) = S1(z,x1), S2(z,x2), with x = {z, x1} (d = 2).
	// The residual query is S1(), S2(x2); u = (1,1) saturates both
	// variables (z via u1+u2, x1 via u1). Eq. (12) then reads
	// sqrt(Σ_{(z,x1)} M1(z,x1)·M2(z) / p); verify against brute force.
	q := query.Star(2)
	p := 16
	db := data.NewDatabase()
	s1 := data.NewRelation("S1", 2, 100000)
	s2 := data.NewRelation("S2", 2, 100000)
	// z=5 heavy in both; a few light pairs.
	for i := int64(0); i < 20; i++ {
		s1.Add(5, 100+i)
		s2.Add(5, 200+i)
	}
	for i := int64(0); i < 10; i++ {
		s1.Add(1000+i, 300+i)
		s2.Add(1000+i, 400+i)
	}
	db.Put(s1)
	db.Put(s2)

	x := query.NewVarSet(0, 1) // z, x1
	got, table := ResidualLower(q, x, db, p)
	if len(table) == 0 {
		t.Fatal("no saturating packings for {z,x1}")
	}
	// Brute force: every (z,x1) pair of S1 contributes
	// M1(z,x1)^1 · M2(z)^1 where both are in bits.
	b1 := float64(s1.BitsPerTuple())
	b2 := float64(s2.BitsPerTuple())
	zCount := map[int64]float64{}
	s2.Each(func(_ int, tu data.Tuple) bool { zCount[tu[0]]++; return true })
	sum := 0.0
	s1.Each(func(_ int, tu data.Tuple) bool {
		// Each (z,x1) pair occurs once in S1: M1(h) = b1.
		sum += b1 * (zCount[tu[0]] * b2)
		return true
	})
	want := math.Sqrt(sum / float64(p))
	if !approx(got, want, 1e-9) {
		t.Errorf("d=2 residual bound = %v, want %v", got, want)
	}
}

// ExpectedAnswers returns E[|q(I)|] = n^{k-a}·Π_j m_j for the uniform
// random-instance space (Lemma A.1). m in tuples, n the domain size.
func ExpectedAnswers(q *query.Query, m []float64, n float64) float64 {
	if len(m) != q.NumAtoms() {
		panic("bounds: m length mismatch")
	}
	arity := 0 // a = Σ_j a_j
	for _, at := range q.Atoms {
		arity += at.Arity()
	}
	out := math.Pow(n, float64(q.NumVars()-arity))
	for _, mj := range m {
		out *= mj
	}
	return out
}

// LPLowerEqualsVertexMax verifies Theorem 3.6 numerically for a given
// query/statistics: the LP-based upper bound p^λ equals the vertex-based
// maximum. Returns the two values for comparison (used by tests and the
// experiment harness).
func LPLowerEqualsVertexMax(q *query.Query, bitsM []float64, p int, lambda float64) (lpBound, vertexBound float64) {
	lpBound = math.Pow(float64(p), lambda)
	vertexBound, _ = SimpleLower(q, bitsM, p)
	return lpBound, vertexBound
}
