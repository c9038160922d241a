// Package mapreduce implements the §5 connection between the MPC model and
// the MapReduce model of Afrati et al. (PVLDB 2013): reducers bounded by a
// size L (in bits), the replication rate r = Σ_i L_i / |I|, the
// lower bound of Theorem 5.1, and a measured replication-rate harness that
// drives the HyperCube algorithm with the number of reducers needed for a
// target reducer size.
package mapreduce

import (
	"math"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/packing"
	"repro/internal/query"
)

// ReplicationLowerBound returns the Theorem 5.1 lower bound on the
// replication rate (up to the constant c^u):
//
//	r ≥ u·L/(Σ_j M_j) · max_u Π_j (M_j/L)^{u_j}
//
// maximized over the packing vertices pk(q). bitsM holds M_j in bits; l is
// the reducer size in bits. Relations with M_j < L contribute factor 1 for
// their weight (the paper assumes L ≤ M_j; we clamp to keep the bound
// meaningful on mixed inputs).
func ReplicationLowerBound(q *query.Query, bitsM []float64, l float64) float64 {
	if l <= 0 {
		panic("mapreduce: reducer size must be positive")
	}
	sumM := 0.0
	allFit := true
	for _, m := range bitsM {
		sumM += m
		if m > l {
			allFit = false
		}
	}
	if allFit {
		// Theorem 5.1 assumes L ≤ M_j; when every relation fits in one
		// reducer only the trivial r ≥ 1 holds.
		return 1
	}
	best := 0.0
	for _, vtx := range packing.PK(q) {
		u := vtx.Floats()
		total := 0.0
		prod := 1.0
		for j := range u {
			total += u[j]
			ratio := bitsM[j] / l
			if ratio < 1 {
				ratio = 1
			}
			prod *= math.Pow(ratio, u[j])
		}
		if total == 0 {
			continue
		}
		if r := total * l / sumM * prod; r > best {
			best = r
		}
	}
	return best
}

// MeasuredReplication routes q's HyperCube plan to p reducers and reports
// (replication rate, max reducer load in bits). Sweeping p trades reducer
// size against replication — the r-versus-L curve of Example 5.2. Both
// depend on routing alone, so the reducers never compute the join.
func MeasuredReplication(q *query.Query, db *data.Database, p int, seed uint64) (r float64, maxBits int64) {
	plan := hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: seed})
	res, _ := exec.Run(plan.Phys, db, exec.Config{SkipCompute: true}) // no ctx, no faults: never errors
	return res.Loads.Replication, res.Loads.MaxBits
}
