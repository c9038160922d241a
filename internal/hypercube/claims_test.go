package hypercube

import (
	"math"
	"sort"
	"testing"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/workload"
)

// The paper's §3 tables, each checked at one instance against the bounds
// the paper states, with polylog(p) slack where the statement is O(·).

// dbOf collects relations into a database.
func dbOf(rels ...*data.Relation) *data.Database {
	db := data.NewDatabase()
	for _, r := range rels {
		db.Put(r)
	}
	return db
}

// matchingDB gives atom j of q a matching of ms[j] tuples.
func matchingDB(q *query.Query, ms []int) *data.Database {
	db := data.NewDatabase()
	for j, a := range q.Atoms {
		db.Put(workload.Matching(a.Name, a.Arity(), ms[j], 1<<21, int64(100+j)))
	}
	return db
}

// atomBitsOf returns M_j in bits for each atom of q.
func atomBitsOf(q *query.Query, db *data.Database) []float64 {
	bits := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		bits[j] = float64(db.MustGet(a.Name).Bits())
	}
	return bits
}

// checkRatio fails t unless got/ref lies in [lo, hi].
func checkRatio(t *testing.T, what string, got, ref, lo, hi float64) {
	t.Helper()
	r := got / ref
	if !(r >= lo && r <= hi) {
		t.Errorf("%s: %.0f / %.0f = %.2f, want in [%.2f, %.2f]", what, got, ref, r, lo, hi)
		return
	}
	t.Logf("%s: %.0f / %.0f = %.2f", what, got, ref, r)
}

// TestExample33JoinShares checks Example 3.3 on join2 at p = 64: the cube
// shares load 2m/p^{2/3} on matchings and 2m/p^{1/3} when every tuple has
// one z, while the hash join's shares (1, 1, p) load 2m/p and 2m.
func TestExample33JoinShares(t *testing.T) {
	const m, p = 4000, 64
	pf, mf := float64(p), float64(m)
	q := query.Join2()
	skewFree := dbOf(workload.Matching("S1", 2, m, 1<<21, 1), workload.Matching("S2", 2, m, 1<<21, 2))
	oneZ := dbOf(workload.SingleValue("S1", 2, m, 1<<21, 1, 7, 3), workload.SingleValue("S2", 2, m, 1<<21, 1, 7, 4))
	cube, hashJoin := EqualShares(3, p), []int{1, 1, p}
	for _, c := range []struct {
		name   string
		db     *data.Database
		shares []int
		want   float64
	}{
		{"matching/cube", skewFree, cube, 2 * mf / math.Pow(pf, 2.0/3)},
		{"matching/hash", skewFree, hashJoin, 2 * mf / pf},
		{"one-z/cube", oneZ, cube, 2 * mf / math.Pow(pf, 1.0/3)},
		{"one-z/hash", oneZ, hashJoin, 2 * mf},
	} {
		_, res := run(t, q, c.db, Config{P: p, Seed: 9, Shares: c.shares}, true)
		checkRatio(t, c.name+" max tuples", float64(res.Rounds[0].MaxTuples), c.want, 0.2, 8*math.Log(pf))
	}
}

// TestExample37TriangleBounds checks Example 3.7's load table on C3 at
// sizes (m, m/2, m/4): the simple bound has one row per vertex of pk(C3)
// (the vertices themselves are packing.TestPKTriangleMatchesExample37),
// and HyperCube's routed load is within polylog(p) of their maximum.
func TestExample37TriangleBounds(t *testing.T) {
	const m, p = 3000, 64
	q := query.Triangle()
	specs := []workload.AtomSpec{
		{Name: "S1", Arity: 2, M: m, Domain: 1 << 21},
		{Name: "S2", Arity: 2, M: m / 2, Domain: 1 << 21},
		{Name: "S3", Arity: 2, M: m / 4, Domain: 1 << 21},
	}
	db := workload.ForQuery(specs, 5)
	best, table := bounds.SimpleLower(q, atomBitsOf(q, db), p)
	if len(table) != 4 {
		t.Errorf("SimpleLower has %d rows, want the 4 vertices of pk(C3): %v", len(table), table)
	}
	lnP := math.Log(p)
	checkRatio(t, "HC max bits / max bound", maxBits(t, q, db, Config{P: p, Seed: 7}), best, 0.2, 8*lnP*lnP)
}

// TestTheorems34to36MatchingBounds checks Theorems 3.4–3.6 on matchings of
// unequal sizes: the LP's predicted load p^λ equals the packing-vertex
// lower bound, and HyperCube's routed load is within (ln p)^k of it.
func TestTheorems34to36MatchingBounds(t *testing.T) {
	const m, p = 3000, 64
	for _, c := range []struct {
		q  *query.Query
		ms []int
	}{
		{query.Cartesian(2), []int{m, m / 4}},
		{query.Join2(), []int{m, m / 2}},
		{query.Path(3), []int{m, m / 2, m / 4}},
		{query.Triangle(), []int{m, m, m}},
		{query.Star(3), []int{m, m / 2, m / 4}},
	} {
		db := matchingDB(c.q, c.ms)
		lower, _ := bounds.SimpleLower(c.q, atomBitsOf(c.q, db), p)
		pl, res := run(t, c.q, db, Config{P: p, Seed: 11}, true)
		checkRatio(t, c.q.Name+" PredictedBits / SimpleLower", pl.PredictedBits, lower, 0.999, 1.001)
		polylog := 10 * math.Pow(math.Log(p), float64(c.q.NumVars()))
		checkRatio(t, c.q.Name+" max bits / SimpleLower", float64(res.Rounds[0].MaxBits), lower, 0.15, polylog)
	}
}

// TestLemma31RouterLoads checks Lemma 3.1 on the router that ships tuples:
// q(x,y) = R(x,y) on the 16×16 hypercube sends each tuple to one cell, so
// the max cell load is the hashing lemma's. Matchings load O(m/p),
// degree-bounded relations O(polylog · m/p), and one repeated x value
// Θ(m/p_y). On one dimension, q(x) = R(x) over 10 cells, the loads
// straddle their mean m/p.
func TestLemma31RouterLoads(t *testing.T) {
	const m = 1 << 14
	q := query.MustParse("q(x,y) = R(x,y)")
	lnP := math.Log(256)
	for _, c := range []struct {
		name   string
		r      *data.Relation
		ref    float64
		lo, hi float64
	}{
		{"matching", workload.Matching("R", 2, m, 8*m, 1), m / 256.0, 0.5, 4},
		{"zipf_1.4", workload.Zipf("R", m, 8*m, 0, 1.4, m/64, 2), m / 256.0, 0.5, 12 * lnP * lnP},
		{"single_value", workload.SingleValue("R", 2, m, 8*m, 0, 3, 3), m / 16.0, 0.5, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, res := run(t, q, dbOf(c.r), Config{P: 256, Seed: 13, Shares: []int{16, 16}}, true)
			if res.Rounds[0].TotalTuples != m {
				t.Errorf("routed %d tuples, want each of %d once", res.Rounds[0].TotalTuples, m)
			}
			checkRatio(t, "max tuples", float64(res.Rounds[0].MaxTuples), c.ref, c.lo, c.hi)
		})
	}
	t.Run("one_dimension", func(t *testing.T) {
		const m, p = 1000, 10
		r := data.NewRelation("R", 1, 100000)
		for i := int64(0); i < m; i++ {
			r.Add(i * 97 % 100000)
		}
		_, res := run(t, query.MustParse("q(x) = R(x)"), dbOf(r), Config{P: p, Seed: 42, Shares: []int{p}}, true)
		if res.Rounds[0].TotalTuples != m {
			t.Errorf("routed %d tuples, want each of %d once", res.Rounds[0].TotalTuples, m)
		}
		if res.Rounds[0].MaxTuples < m/p {
			t.Errorf("max load %d below the mean %d", res.Rounds[0].MaxTuples, m/p)
		}
		mean, least := res.Rounds[0].TotalBits/p, res.Rounds[0].MaxBits
		for _, b := range res.Rounds[0].PerServerBits {
			least = min(least, b)
		}
		if least > mean {
			t.Errorf("min load %d bits above the mean %d", least, mean)
		}
	})
}

// TestRoundGreedyBeatsFloor checks the share rounding against flooring
// each p^{e_i}: the greedy bump never uses fewer servers, and on C3 at
// p = 100, where p^{1/3} is fractional, it uses more of them and loads no
// server more.
func TestRoundGreedyBeatsFloor(t *testing.T) {
	t.Run("exponents", func(t *testing.T) {
		const p = 512
		ideal := []float64{math.Pow(p, 0.5), math.Pow(p, 0.5)}
		floor := []int{int(ideal[0] + 1e-9), int(ideal[1] + 1e-9)}
		if greedy := RoundToBudget(ideal, p); product(greedy) < product(floor) {
			t.Errorf("greedy %v worse than floor %v", greedy, floor)
		}
	})
	t.Run("C3_p100", func(t *testing.T) {
		const m, p = 3000, 100
		q := query.Triangle()
		specs := []workload.AtomSpec{
			{Name: "S1", Arity: 2, M: m, Domain: 1 << 21},
			{Name: "S2", Arity: 2, M: m, Domain: 1 << 21},
			{Name: "S3", Arity: 2, M: m, Domain: 1 << 21},
		}
		db := workload.ForQuery(specs, 3)
		e, _ := OptimalExponents(q, atomBitsOf(q, db), p)
		floor := make([]int, len(e))
		for i, ei := range e {
			floor[i] = max(1, int(math.Pow(p, ei)+1e-9))
		}
		greedy, gres := run(t, q, db, Config{P: p, Seed: 7}, true)
		_, fres := run(t, q, db, Config{P: p, Seed: 7, Shares: floor}, true)
		if used := product(greedy.Grid.Shares); used > p || used <= product(floor) {
			t.Errorf("greedy shares %v use %d servers, want more than floor %v and at most %d", greedy.Grid.Shares, used, floor, p)
		}
		if gres.Rounds[0].MaxTuples > fres.Rounds[0].MaxTuples {
			t.Errorf("greedy %v max tuples %d > floor %v max tuples %d",
				greedy.Grid.Shares, gres.Rounds[0].MaxTuples, floor, fres.Rounds[0].MaxTuples)
		}
		t.Logf("greedy %v max tuples %d, floor %v max tuples %d", greedy.Grid.Shares, gres.Rounds[0].MaxTuples, floor, fres.Rounds[0].MaxTuples)
	})
}

// TestLPBeatsAfratiUllmanOnMaxLoad checks why §3.1 takes "a different
// approach" from Afrati–Ullman: on unequal sizes the LP (5), which
// minimizes the max load, never loads a server much more than the
// total-load optimizer does.
func TestLPBeatsAfratiUllmanOnMaxLoad(t *testing.T) {
	const m, p = 4000, 64
	for _, c := range []struct {
		q  *query.Query
		ms []int
	}{
		{query.Triangle(), []int{m, m / 8, m / 8}},
		{query.Path(3), []int{m / 8, m, m / 8}},
		{query.Join2(), []int{m, m / 4}},
	} {
		db := matchingDB(c.q, c.ms)
		e := afratiUllmanExponents(c.q, atomBitsOf(c.q, db), p)
		ideal := make([]float64, len(e))
		for i, ei := range e {
			ideal[i] = math.Pow(p, ei)
		}
		au := RoundToBudget(ideal, p)
		lpBits := maxBits(t, c.q, db, Config{P: p, Seed: 5})
		auBits := maxBits(t, c.q, db, Config{P: p, Seed: 5, Shares: au})
		if lpBits > 2.5*auBits {
			t.Errorf("%s: LP max bits %.0f > 2.5 × Afrati–Ullman %v max bits %.0f", c.q.Name, lpBits, au, auBits)
		}
		t.Logf("%s: LP max bits %.0f, Afrati–Ullman %v max bits %.0f", c.q.Name, lpBits, au, auBits)
	}
}

func TestAfratiUllmanMatchesLPOnSymmetricTriangle(t *testing.T) {
	// For the symmetric triangle both optimizers should land on (1/3,1/3,1/3).
	q := query.Triangle()
	M := []float64{1 << 20, 1 << 20, 1 << 20}
	e := afratiUllmanExponents(q, M, 64)
	for i, ei := range e {
		if math.Abs(ei-1.0/3) > 0.02 {
			t.Errorf("AU e[%d] = %v, want ≈1/3", i, ei)
		}
	}
}

func TestAfratiUllmanStaysOnSimplex(t *testing.T) {
	q := query.Path(3)
	M := []float64{1 << 10, 1 << 20, 1 << 14}
	e := afratiUllmanExponents(q, M, 128)
	sum := 0.0
	for _, ei := range e {
		if ei < -1e-9 {
			t.Errorf("negative exponent %v", ei)
		}
		sum += ei
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("Σe = %v, want 1", sum)
	}
}

func TestProjectSimplex(t *testing.T) {
	v := []float64{0.5, 0.5, 0.5}
	projectSimplex(v)
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("projection sum = %v", sum)
	}
	w := []float64{-5, -1}
	projectSimplex(w)
	sum = w[0] + w[1]
	if math.Abs(sum-1) > 1e-12 || w[0] < 0 || w[1] < 0 {
		t.Errorf("projection of negatives = %v", w)
	}
}

// afratiUllmanExponents reproduces the share optimization of Afrati &
// Ullman (EDBT 2010): minimize the total (sum, not max) load
// Σ_j bits_j / p^{Σ_{i∈S_j} e_i} over the simplex Σ_i e_i = 1, e ≥ 0.
// The objective is convex in e, so projected gradient descent converges;
// a fixed budget of iterations is ample for the tiny dimension counts
// here.
func afratiUllmanExponents(q *query.Query, bits []float64, p int) []float64 {
	k := q.NumVars()
	e := make([]float64, k)
	for i := range e {
		e[i] = 1.0 / float64(k)
	}
	logP := math.Log(float64(p))
	grad := make([]float64, k)
	for iter := 0; iter < 4000; iter++ {
		for i := range grad {
			grad[i] = 0
		}
		for j, a := range q.Atoms {
			exp := 0.0
			for _, v := range a.Vars {
				exp += e[v]
			}
			load := bits[j] * math.Exp(-logP*exp)
			for _, v := range a.Vars {
				grad[v] -= logP * load
			}
		}
		// Normalize the gradient scale so the step size is dimensionless.
		norm := 0.0
		for _, g := range grad {
			norm += g * g
		}
		norm = math.Sqrt(norm)
		if norm < 1e-15 {
			break
		}
		step := 0.5 / (1 + float64(iter)/40)
		for i := range e {
			e[i] -= step * grad[i] / norm
		}
		projectSimplex(e)
	}
	return e
}

// projectSimplex projects v onto {x ≥ 0, Σ x_i = 1} in Euclidean norm
// (the standard sort-based algorithm).
func projectSimplex(v []float64) {
	n := len(v)
	u := append([]float64(nil), v...)
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	css := 0.0
	rho := -1
	var theta float64
	for i := 0; i < n; i++ {
		css += u[i]
		t := (css - 1) / float64(i+1)
		if u[i]-t > 0 {
			rho = i
			theta = t
		}
	}
	if rho < 0 {
		for i := range v {
			v[i] = 1.0 / float64(n)
		}
		return
	}
	for i := range v {
		v[i] = math.Max(0, v[i]-theta)
	}
}
