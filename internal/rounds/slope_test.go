package rounds

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/workload"
)

// slopeTol bounds a fitted exponent's distance from the theory. Never
// widen it: if the sweep is too slow, lower m.
const slopeTol = 0.03

// skipSweep skips the sweep under -short and under the race detector,
// where it takes tens of seconds; CI runs it in a step of its own.
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

// TestSlopeMultiRound checks the multi-round side of the rounds/load
// trade-off on matchings: each round of the triangle's left-deep pipeline
// is a hash join on its inputs, so the sum of per-round maxima falls as
// m/p, against one-round HyperCube's m/p^{2/3}. Three points equally
// spaced in log p (p = 8, 64, 512; at 4096 the max-of-bins term
// √(2·(m/p)·ln p) dominates m/p) make the fit the end-point slope.
func TestSlopeMultiRound(t *testing.T) {
	skipSweep(t)
	const m = 300_000
	q := query.Triangle()
	db := data.NewDatabase()
	for j, a := range q.Atoms {
		db.Put(workload.Matching(a.Name, 2, m, 1<<21, int64(j+1)))
	}
	ps := []int{8, 64, 512}
	loads := make([]float64, len(ps))
	for i, p := range ps {
		pr, err := exec.Execute(PlanPipeline(q, db, Config{P: p, Seed: 3}).Pipe, db, exec.Config{SkipCompute: true})
		if err != nil {
			t.Fatal(err)
		}
		loads[i] = float64(pr.MaxLoadBits())
	}
	got := fitSlope(ps, loads)
	if math.Abs(got+1) > slopeTol {
		t.Fatalf("fitted slope %.3f over p = %v (Σ max loads %.0f), want -1 ± %.2f", got, ps, loads, slopeTol)
	}
	t.Logf("fitted slope %.3f over p = %v, theory -1", got, ps)
}
