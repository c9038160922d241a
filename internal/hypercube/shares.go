// Package hypercube implements the HYPERCUBE (HC) algorithm of §3.1 of
// Beame–Koutris–Suciu: the p servers are organized into a k-dimensional
// hypercube with one dimension per query variable; every tuple is hashed on
// its own variables and replicated along the remaining dimensions. The
// package covers share selection (the LP (5) of the paper, the
// Afrati–Ullman total-load optimizer as a baseline, and the skew-resilient
// equal-share configuration), integer share rounding, subcube routing, and
// the end-to-end one-round algorithm on the MPC simulator.
package hypercube

import (
	"fmt"
	"math"
	"sort"

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

// AfratiUllmanExponents reproduces the share optimization of Afrati &
// Ullman (EDBT 2010): minimize the total (sum, not max) load
// Σ_j bits_j / p^{Σ_{i∈S_j} e_i} over the simplex Σ_i e_i = 1, e ≥ 0.
// The objective is convex in e, so projected gradient descent converges;
// we run a fixed budget of iterations, ample for the tiny dimension counts
// here. This serves as the baseline share picker in ablation A2.
func AfratiUllmanExponents(q *query.Query, bits []float64, p int) []float64 {
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

// Rounding selects how fractional shares p^{e_i} become integers.
type Rounding int

// Rounding strategies (ablation A1).
const (
	// RoundGreedy starts from RoundFloor and greedily increments the
	// dimension with the largest fractional loss while the product stays
	// ≤ p. It is the zero value, so the default.
	RoundGreedy Rounding = iota
	// RoundFloor takes p_i = max(1, ⌊p^{e_i}⌋).
	RoundFloor
	// RoundPowerOfTwo rounds each share down to a power of two, then
	// greedily doubles dimensions while the product stays ≤ p.
	RoundPowerOfTwo
)

func (r Rounding) String() string {
	switch r {
	case RoundFloor:
		return "floor"
	case RoundGreedy:
		return "greedy"
	case RoundPowerOfTwo:
		return "pow2"
	}
	return "?"
}

// RoundShares converts share exponents into integer shares with product
// ≤ p. Exponents must be ≥ 0 and sum to ≤ 1 (tolerating float slack).
func RoundShares(e []float64, p int, strategy Rounding) []int {
	k := len(e)
	ideal := make([]float64, k)
	shares := make([]int, k)
	for i, ei := range e {
		ideal[i] = math.Pow(float64(p), ei)
		shares[i] = int(ideal[i] + 1e-9) // floor with float-noise guard
		if shares[i] < 1 {
			shares[i] = 1
		}
	}
	switch strategy {
	case RoundFloor:
		// done
	case RoundGreedy:
		for {
			prod := product(shares)
			best, bestGain := -1, 0.0
			for i := range shares {
				if prod/shares[i]*(shares[i]+1) > p {
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
	case RoundPowerOfTwo:
		for i := range shares {
			shares[i] = 1 << uint(math.Floor(math.Log2(float64(shares[i]))))
		}
		for {
			prod := product(shares)
			best, bestGain := -1, 0.0
			for i := range shares {
				if prod/shares[i]*(shares[i]*2) > p {
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
			shares[best] *= 2
		}
	}
	return shares
}

// RoundToBudget rounds ideal (fractional) shares down to integers and then
// greedily increments the dimension with the largest fractional loss while
// the product stays within budget. Used by the bin-combination algorithm,
// whose per-hitter blocks have budget p^{1-α} rather than p.
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
	e := make([]float64, k)
	for i := range e {
		e[i] = 1.0 / float64(k)
	}
	return RoundShares(e, p, RoundGreedy)
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
