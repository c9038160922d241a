package hypercube

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/packing"
	"repro/internal/query"
	"repro/internal/workload"
)

// The paper states its loads as exponents in p. Each test below routes a
// sweep of p with SkipCompute, fits the least-squares slope of log(max
// load) against log p and asserts it within slopeTol of the theory. Three
// points equally spaced in log p make the fit the slope between the two
// end points. Never widen slopeTol: if a sweep is too slow, lower m.
const slopeTol = 0.03

var (
	// sweepWide is the default sweep.
	sweepWide = []int{64, 512, 4096}
	// sweepFlat serves loads of m/p (τ* = 1): at p = 4096 the max-of-bins
	// term √(2·(m/p)·ln p) dominates them.
	sweepFlat = []int{8, 64, 512}
)

// skipSweep skips the sweeps under -short and under the race detector,
// where one sweep takes tens of seconds; CI runs them in a step of their own.
func skipSweep(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("fitted-slope sweep: skipped under -short and -race")
	}
}

// fitSlope is the least-squares slope of log y against log p.
func fitSlope(ps []int, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i, p := range ps {
		x, y := math.Log(float64(p)), math.Log(ys[i])
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	n := float64(len(ps))
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// checkSlope asserts that loads over ps decay as p^want, within slopeTol.
func checkSlope(t *testing.T, ps []int, loads []float64, want float64) {
	t.Helper()
	got := fitSlope(ps, loads)
	if math.Abs(got-want) > slopeTol {
		t.Errorf("fitted slope %.3f over p = %v (loads %.0f), want %.3f ± %.2f", got, ps, loads, want, slopeTol)
		return
	}
	t.Logf("fitted slope %.3f over p = %v, theory %.3f", got, ps, want)
}

// maxBits routes cfg's plan for q over db and returns its max load in bits.
func maxBits(t *testing.T, q *query.Query, db *data.Database, cfg Config) float64 {
	t.Helper()
	_, res := run(t, q, db, cfg, true)
	return float64(res.Rounds[0].MaxBits)
}

// TestSlopeHyperCubeCatalog checks Theorem 3.5 on matchings: HyperCube's
// LP shares realize load m/p^{1/τ*}, never below the simple lower bound.
func TestSlopeHyperCubeCatalog(t *testing.T) {
	skipSweep(t)
	for _, c := range []struct {
		name string
		m    int
		ps   []int
	}{
		{"C3", 300_000, sweepWide},
		{"C4", 100_000, sweepWide},
		{"L3", 100_000, sweepWide},
		{"cart3", 100_000, sweepWide},
		{"join2", 300_000, sweepFlat},
		{"star3", 300_000, sweepFlat},
		// One relation, so the fewest tuples per server: at 300k the
		// max-of-bins term alone pulls the slope to ≈ −0.97.
		{"binary", 1_000_000, sweepFlat},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := query.Catalog()[c.name]
			db := dbMatch(q, c.m)
			bits := atomBits(q, db)
			loads := make([]float64, len(c.ps))
			for i, p := range c.ps {
				loads[i] = maxBits(t, q, db, Config{P: p, Seed: 3})
				if lower, _ := bounds.SimpleLower(q, bits, p); loads[i] < 0.99*lower {
					t.Errorf("p=%d: load %.0f bits below the lower bound %.0f", p, loads[i], lower)
				}
			}
			checkSlope(t, c.ps, loads, -1/packing.Tau(q))
		})
	}
}

// TestSlopeCartesianUnequal checks the §1 warm-up: the p1×p2 grid loads
// S1 × S2 at 2·√(m1·m2/p) tuples, also when m1 = 4·m2.
func TestSlopeCartesianUnequal(t *testing.T) {
	skipSweep(t)
	m1, m2 := 400_000, 100_000
	q := query.Cartesian(2)
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 1, m1, 1<<21, 1))
	db.Put(workload.Matching("S2", 1, m2, 1<<21, 2))
	loads := make([]float64, len(sweepWide))
	for i, p := range sweepWide {
		_, res := run(t, q, db, Config{P: p, Seed: 5}, true)
		loads[i] = float64(res.Rounds[0].MaxTuples)
		pred := 2 * math.Sqrt(float64(m1)*float64(m2)/float64(p))
		if r := loads[i] / pred; r < 0.4 || r > 3 {
			t.Errorf("p=%d: load %.0f tuples is %.2f× 2√(m1·m2/p)", p, loads[i], r)
		}
	}
	checkSlope(t, sweepWide, loads, -0.5)
}

// TestSlopeEqualSharesOneZ checks Corollary 3.2 (ii) on the worst case of
// Example 3.3, every tuple of S1 and S2 on one z: equal shares keep the
// load at 2m/∛p tuples, while the hash join, shares (1, 1, p), ships all
// 2m tuples to one server at every p.
func TestSlopeEqualSharesOneZ(t *testing.T) {
	skipSweep(t)
	const m = 300_000
	q := query.Join2()
	db := data.NewDatabase()
	db.Put(workload.SingleValue("S1", 2, m, 1<<21, 1, 7, 1))
	db.Put(workload.SingleValue("S2", 2, m, 1<<21, 1, 7, 2))
	equal := make([]float64, len(sweepWide))
	hash := make([]float64, len(sweepWide))
	for i, p := range sweepWide {
		_, res := run(t, q, db, Config{P: p, Seed: 3, Shares: EqualShares(3, p)}, true)
		equal[i] = float64(res.Rounds[0].MaxTuples)
		if r := equal[i] / (2 * m / math.Cbrt(float64(p))); r < 0.2 || r > 6 {
			t.Errorf("p=%d: equal shares load %.0f tuples is %.2f× 2m/∛p", p, equal[i], r)
		}
		_, res = run(t, q, db, Config{P: p, Seed: 3, Shares: []int{1, 1, p}}, true)
		hash[i] = float64(res.Rounds[0].MaxTuples)
		if r := hash[i] / (2 * m); r < 0.9 || r > 1.1 {
			t.Errorf("p=%d: hash join load %.0f tuples is %.2f× 2m", p, hash[i], r)
		}
	}
	t.Run("equal-shares", func(t *testing.T) { checkSlope(t, sweepWide, equal, -1.0/3) })
	t.Run("hash-join", func(t *testing.T) { checkSlope(t, sweepWide, hash, 0) })
}

// TestSlopeSpaceExponent checks §3.3: with |S1| = |S2| = m and
// |S3| = m/√p (ν = (0, 0, 1/2)), HyperCube's load is M/p^{1−ε} for
// bounds.SpaceExponent's ε = 1/6.
func TestSlopeSpaceExponent(t *testing.T) {
	skipSweep(t)
	const m = 600_000
	q := query.Triangle()
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, m, 1<<21, 1))
	db.Put(workload.Matching("S2", 2, m, 1<<21, 2))
	loads := make([]float64, len(sweepWide))
	var eps float64
	for i, p := range sweepWide {
		db.Put(workload.Matching("S3", 2, int(m/math.Sqrt(float64(p))), 1<<21, 3))
		loads[i] = maxBits(t, q, db, Config{P: p, Seed: 3})
		eps = bounds.SpaceExponent(q, atomBits(q, db), p)
		if math.Abs(eps-1.0/6) > 1e-3 {
			t.Errorf("p=%d: ε = %.4f, want 1/6", p, eps)
		}
	}
	checkSlope(t, sweepWide, loads, eps-1)
}
