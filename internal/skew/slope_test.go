package skew

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/workload"
)

// The fitted-slope tests of §4: each routes a sweep of p with SkipCompute,
// fits the least-squares slope of log(max virtual load) against log p and
// asserts it within slopeTol of the paper's exponent. Three points equally
// spaced in log p make the fit the slope between the two end points.
// Never widen slopeTol: if a sweep is too slow, lower m.
const slopeTol = 0.03

var (
	// sweepWide is the default sweep.
	sweepWide = []int{64, 512, 4096}
	// sweepFlat serves loads of m/p: at p = 4096 the max-of-bins term
	// √(2·(m/p)·ln p) dominates them.
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

// TestSlopeSkewJoin checks §4.1's Eq. (10) per heavy-hitter class. S1 puts
// every tuple on one z. When S2 does too, z is heavy in both (H12) and
// costs √(m1·m2/p) = m/√p; when S2 is a matching, z is heavy in S1 only
// (H1) and costs m/p. H2 is H1 mirrored.
func TestSlopeSkewJoin(t *testing.T) {
	skipSweep(t)
	for _, c := range []struct {
		name    string
		m       int
		ps      []int
		want    float64
		classes string // H1/H2/H12 counts
	}{
		{"H12", 300_000, sweepWide, -0.5, "0/0/1"},
		// At 300k the max-of-bins term pulls H1's slope to ≈ −0.97.
		{"H1", 1_000_000, sweepFlat, -1, "1/0/0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s2 *data.Relation
			if c.name == "H1" {
				s2 = workload.Matching("S2", 2, c.m, 1<<21, 2)
			} else {
				s2 = workload.SingleValue("S2", 2, c.m, 1<<21, 1, 7, 2)
			}
			db := joinDB(workload.SingleValue("S1", 2, c.m, 1<<21, 1, 7, 1), s2)
			loads := make([]float64, len(c.ps))
			for i, p := range c.ps {
				jp, res := runJoin(t, db, JoinConfig{P: p, Seed: 17}, true)
				if got := fmt.Sprintf("%d/%d/%d", jp.NumH1, jp.NumH2, jp.NumH12); got != c.classes {
					t.Fatalf("p=%d: H1/H2/H12 = %s, want %s", p, got, c.classes)
				}
				loads[i] = float64(res.MaxLoadBits())
			}
			checkSlope(t, c.ps, loads, c.want)
		})
	}
}

// TestSlopeBinCombination checks §4.2 on the triangle whose S2 and S3
// share one x3: the residual query on {x3} joins S1 with the cartesian
// product S2′(x2) × S3′(x1), so the optimal load is √(m2·m3/p) = m/√p
// (Theorem 4.7's residual bound), which the plan predicts and realizes.
func TestSlopeBinCombination(t *testing.T) {
	skipSweep(t)
	const m = 30_000
	q := query.Triangle()
	db := generalDB(q,
		workload.Matching("S1", 2, m, 1<<21, 1),
		workload.SingleValue("S2", 2, m, 1<<21, 1, 7, 2),
		workload.SingleValue("S3", 2, m, 1<<21, 0, 7, 3),
	)
	loads := make([]float64, len(sweepWide))
	predicted := make([]float64, len(sweepWide))
	for i, p := range sweepWide {
		gp, res := runGeneral(t, q, db, GeneralConfig{P: p, Seed: 5}, true)
		loads[i], predicted[i] = float64(res.MaxLoadBits()), gp.PredictedBits
	}
	t.Run("realized", func(t *testing.T) { checkSlope(t, sweepWide, loads, -0.5) })
	t.Run("predicted", func(t *testing.T) { checkSlope(t, sweepWide, predicted, -0.5) })
}
