// Package hypercube implements the HYPERCUBE (HC) algorithm of §3.1 of
// Beame–Koutris–Suciu: the p servers are organized into a k-dimensional
// hypercube with one dimension per query variable; every tuple is hashed on
// its own variables and replicated along the remaining dimensions. SolveGrid
// is the one share LP and integer rounding, shared with the §4.2 bin
// combinations: LP (5) of §3.1 is LP (11) of §4.2 with no variable taken
// out, no bin exponents and the whole budget. The package also covers the
// skew-resilient equal-share configuration, subcube routing, and the
// end-to-end one-round algorithm on the MPC simulator.
package hypercube

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/query"
	"repro/internal/rational"
)

// Grid is one HyperCube layout: a grid with one dimension per variable in
// Vars, each split into that dimension's integer share of cells, with the
// share LP solution it was rounded from. §3.1 routes every atom over one
// grid spanning all the query's variables; §4.2 lays out one grid per bin
// combination B, over the variables outside its x. A grid of given shares
// (Config.Shares) has no Exponents and λ = 0.
type Grid struct {
	Vars      []int     // the query variable of each dimension, ascending
	Exponents []float64 // the share exponent e_i of each dimension
	Lambda    float64   // the LP optimum λ: the predicted load is p^λ bits
	Shares    []int     // the integer share of each dimension
}

// SolveGrid solves the share LP (11) of §4.2 on the grid over V − x,
//
//	minimize λ  s.t.  Σ_{i ∈ V−x} e_i ≤ 1 − α,
//	∀j: λ + Σ_{i ∈ vars(S_j)−x} e_i ≥ μ_j − β_j,  e, λ ≥ 0
//
// where μ_j = log_p(bits_j) and a negative right-hand side counts as 0, and
// rounds the shares p^{e_i} to integers within p^{1−α} servers
// (RoundToBudget). The LP (5) of §3.1 is the case x = ∅, β = 0 (nil
// betas) and α = 0. bits must be positive. The LP is solved exactly over
// rationals (right-hand sides converted losslessly from float64), so
// degenerate queries cannot destabilize it.
func SolveGrid(q *query.Query, bits []float64, p int, x query.VarSet, betas []float64, alpha float64) Grid {
	if len(bits) != q.NumAtoms() {
		panic("hypercube: bits length mismatch")
	}
	if p < 2 {
		panic("hypercube: need p >= 2")
	}
	var g Grid
	for i := 0; i < q.NumVars(); i++ {
		if !x.Contains(i) {
			g.Vars = append(g.Vars, i)
		}
	}
	k := len(g.Vars)
	prob := lp.NewProblem(k + 1) // e over Vars, then λ
	prob.Objective[k].SetInt64(1)

	sum := rational.NewVector(k + 1)
	for d := 0; d < k; d++ {
		sum[d].SetInt64(1)
	}
	prob.AddConstraint(sum, lp.LE, rational.FromFloat(max(1-alpha, 0)))

	logP := math.Log(float64(p))
	for j, a := range q.Atoms {
		if bits[j] <= 0 {
			panic(fmt.Sprintf("hypercube: bits[%d] = %v", j, bits[j]))
		}
		rhs := math.Log(bits[j]) / logP
		if betas != nil {
			rhs -= betas[j]
		}
		row := rational.NewVector(k + 1)
		for _, v := range a.Vars {
			if d := slices.Index(g.Vars, v); d >= 0 {
				row[d].SetInt64(1)
			}
		}
		row[k].SetInt64(1)
		prob.AddConstraint(row, lp.GE, rational.FromFloat(max(rhs, 0)))
	}
	s := prob.Solve()
	if s.Status != lp.Optimal {
		panic("hypercube: share LP " + s.Status.String())
	}
	g.Exponents = make([]float64, k)
	ideal := make([]float64, k)
	for d := range g.Exponents {
		g.Exponents[d], _ = s.X[d].Float64()
		ideal[d] = math.Pow(float64(p), g.Exponents[d])
	}
	g.Lambda, _ = s.X[k].Float64()
	g.Shares = RoundToBudget(ideal, int(math.Pow(float64(p), 1-alpha)))
	return g
}

// OptimalExponents returns the share exponents e and λ of the LP (5) of
// §3.1, SolveGrid's case x = ∅: the optimized expected load per server is
// p^λ bits (Theorem 3.4).
func OptimalExponents(q *query.Query, bits []float64, p int) (e []float64, lambda float64) {
	g := SolveGrid(q, bits, p, nil, nil, 0)
	return g.Exponents, g.Lambda
}

// Cells returns the number of servers the grid spans: the product of its
// shares.
func (g Grid) Cells() int { return product(g.Shares) }

// RoundToBudget rounds ideal (fractional) shares down to integers and then
// greedily increments the dimension with the largest fractional loss while
// the product stays within budget. It is the one integer rounding:
// SolveGrid rounds every grid's shares p^{e_i} within p^{1-α}, and
// EqualShares rounds p^{1/k} within p.
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
