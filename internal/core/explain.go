package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/hypercube"
	"repro/internal/packing"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/stats"
)

// Explain renders a human-readable analysis of how the engine would
// evaluate q over db: the chosen strategy and why, the packing polytope
// vertices with their induced bounds (Example 3.7's table for the given
// statistics), the optimal share exponents, and — when skew is present —
// the bin combinations the §4.2 algorithm would build. Inputs ExecuteContext
// would reject render as that error's text.
func (e *Engine) Explain(q *query.Query, db *data.Database) string {
	if err := checkInputs(q, db, nil); err != nil {
		return "explain: " + err.Error() + "\n"
	}
	// Plan once: the cost table reads the chosen strategy's rounds and
	// prediction off the plan and plans the other strategies only for their
	// cost, all off one statistics pass. The
	// §4.2 plan also lists its bin combinations below.
	s := e.settings(ExecOptions{})
	p, seed := s.p, s.seed
	ps := new(stats.Pass)
	defer ps.Release()
	plan := buildPlan(q, db, s, ps).plan
	general := skew.PlanGeneralWith(q, db, skew.GeneralConfig{P: p, Seed: seed}, ps)
	var b strings.Builder
	fmt.Fprintf(&b, "query:    %s\n", q)
	fmt.Fprintf(&b, "servers:  p = %d\n", p)
	fmt.Fprintf(&b, "strategy: %s\n", plan.Strategy)
	fmt.Fprintf(&b, "reason:   %s\n", plan.Reason)
	fmt.Fprintf(&b, "skew:     heavy hitters present = %v\n\n", plan.HasSkew)

	// Predicted cost of every strategy, chosen one marked — the numbers the
	// engine's cost comparison decides on (multi-round only competes when
	// ConsiderMultiRound is set, but its prediction is always shown).
	b.WriteString("predicted cost per strategy (bits):\n")
	writeCost := func(st Strategy, note string, build func() float64) {
		mark := ""
		cost := plan.PredictedBits
		if st == plan.Strategy {
			mark = "  ← chosen"
		} else {
			cost = build()
		}
		if cost > 0 {
			fmt.Fprintf(&b, "  %-16s %14.0f %s%s\n", st, cost, note, mark)
		} else {
			fmt.Fprintf(&b, "  %-16s %14s %s%s\n", st, "n/a", note, mark)
		}
	}
	noCost := func() float64 { return 0 }
	writeCost(HyperCube, "(p^λ)", func() float64 {
		return hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: seed}).PredictedBits
	})
	if plan.Strategy == SkewJoin || isJoin2Shaped(q) {
		writeCost(SkewJoin, "(Eq. 10)", func() float64 {
			return skew.PlanJoinWith(q, db, skew.JoinConfig{P: p, Seed: seed}, ps).PredictedBits
		})
	} else {
		writeCost(SkewJoin, "(query not §4.1-shaped)", noCost)
	}
	writeCost(BinCombination, "(max_B p^λ(B))", func() float64 { return general.PredictedBits })
	if plan.Strategy == MultiRound || q.NumAtoms() >= 2 {
		rounds, cost := plan.Rounds, plan.PredictedBits
		if plan.Strategy != MultiRound {
			mr := planMultiRound(q, db, s, ps)
			rounds, cost = len(mr.Stages), mr.PredictedSumMaxBits
		}
		writeCost(MultiRound, fmt.Sprintf("(SumMaxBits, %d rounds)", rounds), func() float64 { return cost })
	} else {
		writeCost(MultiRound, "(single atom: no rounds needed)", noCost)
	}
	b.WriteByte('\n')

	bitsM := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		rel := db.MustGet(a.Name)
		bitsM[j] = float64(rel.Bits())
		distinct := make([]string, rel.Arity)
		for attr := range distinct {
			distinct[attr] = fmt.Sprintf("%d", ps.Frequencies(rel, []int{attr}).Distinct())
		}
		fmt.Fprintf(&b, "relation %-6s m = %8d tuples, M = %10d bits, distinct/attr = (%s)\n",
			a.Name, rel.Size(), rel.Bits(), strings.Join(distinct, ","))
	}
	fmt.Fprintf(&b, "\nτ* = %.3f  (max fractional edge packing value)\n", packing.Tau(q))

	best, table := bounds.SimpleLower(q, bitsM, p)
	fmt.Fprintf(&b, "\npacking vertices pk(q) and induced bounds (Theorem 3.6):\n")
	for _, row := range table {
		us := make([]string, len(row.U))
		for i, u := range row.U {
			us[i] = fmt.Sprintf("%.2f", u)
		}
		fmt.Fprintf(&b, "  u = (%s)  L(u,M,p) = %.0f bits\n", strings.Join(us, ","), row.Bound)
	}
	fmt.Fprintf(&b, "simple-statistics bound: %.0f bits\n", best)
	fmt.Fprintf(&b, "full lower bound (Thm 1.2, with residual packings): %.0f bits\n",
		plan.LowerBoundBits)

	exps, lambda := hypercube.OptimalExponents(q, bitsM, p)
	ideal := make([]float64, len(exps))
	for i, e := range exps {
		ideal[i] = math.Pow(float64(p), e)
	}
	shares := hypercube.RoundToBudget(ideal, p)
	fmt.Fprintf(&b, "\nshare exponents (LP 5): %s, λ = %.4f → predicted p^λ bits\n",
		fmtExps(q, exps), lambda)
	fmt.Fprintf(&b, "integer shares: %v (%d of %d servers used)\n",
		shares, productInts(shares), p)

	if plan.HasSkew && plan.Strategy == BinCombination {
		fmt.Fprintf(&b, "\nbin combinations (§4.2):\n")
		for _, c := range general.Combos {
			vars := make([]string, len(c.Vars))
			for i, v := range c.Vars {
				vars[i] = q.Vars[v]
			}
			fmt.Fprintf(&b, "  x = {%s}  bins = %v  |C'| = %d  λ = %.3f\n",
				strings.Join(vars, ","), c.Bins, c.CSize, c.Lambda)
		}
	}
	return b.String()
}

func fmtExps(q *query.Query, e []float64) string {
	parts := make([]string, len(e))
	for i, v := range e {
		parts[i] = fmt.Sprintf("%s=%.3f", q.Vars[i], v)
	}
	return strings.Join(parts, " ")
}

func productInts(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}
