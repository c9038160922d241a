// Package hypercube implements the HYPERCUBE (HC) algorithm of §3.1 of
// Beame–Koutris–Suciu: the p servers are organized into a k-dimensional
// hypercube with one dimension per query variable; every tuple is hashed on
// its own variables and replicated along the remaining dimensions. The
// package covers share selection (the LP (5) of the paper and the
// skew-resilient equal-share configuration), integer share rounding,
// subcube routing, and the end-to-end one-round algorithm on the MPC
// simulator.
package hypercube

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/query"
	"repro/internal/rational"
)

// OptimalExponents solves the share-exponent LP (5):
//
//	minimize λ  s.t.  Σ_i e_i ≤ 1,  ∀j: λ + Σ_{i ∈ S_j} e_i ≥ μ_j,  e, λ ≥ 0
//
// where μ_j = log_p(bits_j). It returns the share exponents e and λ; the
// optimized expected load per server is p^λ bits (Theorem 3.4). bits must
// be positive. The LP is solved exactly over rationals (μ_j converted
// losslessly from float64), so degenerate queries cannot destabilize it.
func OptimalExponents(q *query.Query, bits []float64, p int) (e []float64, lambda float64) {
	if len(bits) != q.NumAtoms() {
		panic("hypercube: bits length mismatch")
	}
	if p < 2 {
		panic("hypercube: need p >= 2")
	}
	k := q.NumVars()
	prob := lp.NewProblem(k + 1) // e_0..e_{k-1}, λ
	prob.Objective[k].SetInt64(1)

	sum := rational.NewVector(k + 1)
	for i := 0; i < k; i++ {
		sum[i].SetInt64(1)
	}
	prob.AddConstraint(sum, lp.LE, rational.One())

	logP := math.Log(float64(p))
	for j, a := range q.Atoms {
		if bits[j] <= 0 {
			panic(fmt.Sprintf("hypercube: bits[%d] = %v", j, bits[j]))
		}
		mu := math.Log(bits[j]) / logP
		row := rational.NewVector(k + 1)
		for _, v := range a.Vars {
			row[v].SetInt64(1)
		}
		row[k].SetInt64(1)
		prob.AddConstraint(row, lp.GE, rational.FromFloat(mu))
	}
	s := prob.Solve()
	if s.Status != lp.Optimal {
		panic("hypercube: share LP " + s.Status.String())
	}
	e = make([]float64, k)
	for i := 0; i < k; i++ {
		e[i], _ = s.X[i].Float64()
	}
	lambda, _ = s.X[k].Float64()
	return e, lambda
}

// RoundToBudget rounds ideal (fractional) shares down to integers and then
// greedily increments the dimension with the largest fractional loss while
// the product stays within budget. It is the one integer rounding: HC
// rounds its LP shares p^{e_i} to budget p, and the bin-combination
// algorithm its per-hitter blocks to budget p^{1-α}.
func RoundToBudget(ideal []float64, budget int) []int {
	if budget < 1 {
		budget = 1
	}
	shares := make([]int, len(ideal))
	for i, f := range ideal {
		shares[i] = int(f + 1e-9)
		if shares[i] < 1 {
			shares[i] = 1
		}
	}
	// Floor may overshoot the budget when Σ exponents carry float slack;
	// shrink the largest dimension until feasible.
	for product(shares) > budget {
		maxI := 0
		for i, s := range shares {
			if s > shares[maxI] {
				maxI = i
			}
		}
		if shares[maxI] == 1 {
			break
		}
		shares[maxI]--
	}
	for {
		prod := product(shares)
		best, bestGain := -1, 0.0
		for i := range shares {
			if prod/shares[i]*(shares[i]+1) > budget {
				continue
			}
			gain := ideal[i] / float64(shares[i])
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best == -1 {
			break
		}
		shares[best]++
	}
	return shares
}

// EqualShares returns the skew-resilient configuration of Corollary 3.2
// (ii): every variable gets share ⌊p^{1/k}⌋ (greedily bumped while the
// product stays ≤ p), guaranteeing max load O(max_j M_j / p^{1/k}) on any
// database, skewed or not.
func EqualShares(k, p int) []int {
	ideal := make([]float64, k)
	for i := range ideal {
		ideal[i] = math.Pow(float64(p), 1.0/float64(k))
	}
	return RoundToBudget(ideal, p)
}

func product(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// PredictLoadSkewFree returns the Corollary 3.2 (i) expected load in bits
// for explicit integer shares on a skew-free database:
// max_j M_j / Π_{i ∈ S_j} p_i.
func PredictLoadSkewFree(q *query.Query, bits []float64, shares []int) float64 {
	if len(bits) != q.NumAtoms() || len(shares) != q.NumVars() {
		panic("hypercube: PredictLoadSkewFree shape mismatch")
	}
	worst := 0.0
	for j, a := range q.Atoms {
		denom := 1.0
		for _, v := range a.Vars {
			denom *= float64(shares[v])
		}
		if l := bits[j] / denom; l > worst {
			worst = l
		}
	}
	return worst
}

// PredictLoadWorstCase returns the Corollary 3.2 (ii) guarantee in bits,
// valid on ANY database regardless of skew:
// max_j M_j / min_{i ∈ S_j} p_i.
func PredictLoadWorstCase(q *query.Query, bits []float64, shares []int) float64 {
	if len(bits) != q.NumAtoms() || len(shares) != q.NumVars() {
		panic("hypercube: PredictLoadWorstCase shape mismatch")
	}
	worst := 0.0
	for j, a := range q.Atoms {
		minShare := shares[a.Vars[0]]
		for _, v := range a.Vars[1:] {
			if shares[v] < minShare {
				minShare = shares[v]
			}
		}
		if l := bits[j] / float64(minShare); l > worst {
			worst = l
		}
	}
	return worst
}
