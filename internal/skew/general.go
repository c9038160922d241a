package skew

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file implements the general skew-aware algorithm of §4.2 and
// Appendix D: tuples are partitioned by bin combinations
// B = (x, (β_j)_j) — a variable set x plus a factor-2 frequency bin per
// relation — and each bin combination runs the HyperCube algorithm on the
// grid over V−x that hypercube.SolveGrid lays out from the LP (11) (§3.1's
// LP (5) with x taken out, bin exponents β_j and budget 1−α), over p^{1-α}
// virtual processors for each of the ≤ p^α heavy-hitter assignments in
// C'(B). The sets C'(B) are built inductively through "overweight" heavy
// hitters exactly as in Appendix D.

// binCombo is one bin combination B with C'(B) and its grid.
type binCombo struct {
	x       query.VarSet
	xSorted []int
	bins    []int     // per atom: bin index (0 when x_j = ∅)
	betas   []float64 // per atom: bin exponent β_j

	// cprime maps the canonical key of an assignment h (values aligned
	// with xSorted) to the assignment.
	cprime map[string]data.Tuple

	alpha float64        // log_p |C'(B)|
	grid  hypercube.Grid // LP (11) over V−x, rounded within p^{1-α}
}

func (b *binCombo) key() string {
	var sb strings.Builder
	for _, v := range b.xSorted {
		fmt.Fprintf(&sb, "v%d,", v)
	}
	sb.WriteByte('|')
	for _, bin := range b.bins {
		fmt.Fprintf(&sb, "%d,", bin)
	}
	return sb.String()
}

// GeneralConfig configures the §4.2 algorithm.
type GeneralConfig struct {
	P    int
	Seed uint64
}

// Combo describes one planned bin combination B = (x, (β_j)_j) of §4.2.
type Combo struct {
	Vars      []int   // x, as sorted variable indices
	Bins      []int   // per atom: the frequency bin of x_j (0 when x_j = ∅)
	CSize     int     // |C'(B)|, the heavy-hitter assignments to x
	Lambda    float64 // the LP (11) optimum λ(B)
	Alpha     float64 // log_p |C'(B)|
	Predicted float64 // p^λ(B) in bits
	// Lo and Hi bound the combination's virtual servers [Lo, Hi): one HC
	// subgrid per assignment in C'(B).
	Lo, Hi int
}

// generalState carries everything the construction needs.
type generalState struct {
	q    *query.Query
	p    int
	st   map[string]*stats.RelationStats
	bits []float64 // per atom: M_j in bits, at least 1

	// varPos[j] maps variable index → attribute position in atom j (-1 if
	// the variable does not occur in the atom).
	varPos [][]int

	combos map[string]*binCombo
}

// PlanGeneral runs the Appendix-D bin-combination construction for q over
// db and lowers the layout to a reusable PhysicalPlan. Statistics are
// frozen at plan time, so the plan stays valid while (q, db, p) do.
func PlanGeneral(q *query.Query, db *data.Database, cfg GeneralConfig) *GeneralPlan {
	ps := new(stats.Pass)
	defer ps.Release()
	return PlanGeneralWith(q, db, cfg, ps)
}

// PlanGeneralWith is PlanGeneral taking heavy-hitter statistics from the
// caller's pass, where strategy selection has usually collected them.
func PlanGeneralWith(q *query.Query, db *data.Database, cfg GeneralConfig, ps *stats.Pass) *GeneralPlan {
	if cfg.P < 2 {
		panic("skew: PlanGeneral needs P >= 2")
	}
	gs := newGeneralState(q, db, cfg.P, ps)
	gs.buildCombos()
	return gs.plan(cfg)
}

func newGeneralState(q *query.Query, db *data.Database, p int, ps *stats.Pass) *generalState {
	gs := &generalState{
		q:      q,
		p:      p,
		st:     make(map[string]*stats.RelationStats),
		combos: make(map[string]*binCombo),
	}
	for _, a := range q.Atoms {
		rs := ps.Collect(db.MustGet(a.Name), p)
		gs.st[a.Name] = rs
		gs.bits = append(gs.bits, float64(max(rs.Bits, 1)))
	}
	gs.varPos = make([][]int, q.NumAtoms())
	for j, a := range q.Atoms {
		gs.varPos[j] = make([]int, q.NumVars())
		for i := range gs.varPos[j] {
			gs.varPos[j][i] = -1
		}
		for pos, v := range a.Vars {
			gs.varPos[j][v] = pos
		}
	}
	return gs
}

// atomProj projects an assignment h (values over xSorted) onto the
// positions of atom j, returning the attribute positions and values of
// x_j = x ∩ vars(S_j) in attribute order. ok is false when x_j = ∅.
func (gs *generalState) atomProj(j int, xSorted []int, h data.Tuple) (attrs []int, vals data.Tuple, ok bool) {
	for idx, v := range xSorted {
		if pos := gs.varPos[j][v]; pos >= 0 {
			attrs = append(attrs, pos)
			vals = append(vals, h[idx])
		}
	}
	if len(attrs) == 0 {
		return nil, nil, false
	}
	// Sort by attribute position for canonical stats lookups.
	order := make([]int, len(attrs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return attrs[order[a]] < attrs[order[b]] })
	sa := make([]int, len(attrs))
	sv := make(data.Tuple, len(vals))
	for i, o := range order {
		sa[i] = attrs[o]
		sv[i] = vals[o]
	}
	return sa, sv, true
}

// comboFor returns (creating if needed) the bin combination that the
// assignment h to x belongs to, determined by the actual frequency bins of
// h's projections in each relation.
func (gs *generalState) comboFor(x query.VarSet, xSorted []int, h data.Tuple) *binCombo {
	l := gs.q.NumAtoms()
	bins := make([]int, l)
	betas := make([]float64, l)
	for j, a := range gs.q.Atoms {
		attrs, vals, ok := gs.atomProj(j, xSorted, h)
		if !ok {
			continue // x_j = ∅ → bin 0, β 0
		}
		rs := gs.st[a.Name]
		freq := rs.Freq(attrs, vals)
		var b int
		if freq == 0 {
			b = stats.NumBins(gs.p) // light (or absent): last bin
		} else {
			b = stats.BinOf(freq, rs.M, gs.p)
		}
		bins[j] = b
		betas[j] = stats.BinExponent(b, gs.p)
	}
	proto := &binCombo{x: x, xSorted: xSorted, bins: bins, betas: betas}
	key := proto.key()
	if existing, ok := gs.combos[key]; ok {
		return existing
	}
	proto.cprime = make(map[string]data.Tuple)
	gs.combos[key] = proto
	return proto
}

// solveLP solves B's LP (11) on the grid over V−x with α = log_p |C'(B)|
// and B's bin exponents, through the one share LP of hypercube.SolveGrid.
func (gs *generalState) solveLP(b *binCombo) {
	b.alpha = 0
	if n := len(b.cprime); n > 1 {
		b.alpha = math.Log(float64(n)) / math.Log(float64(gs.p))
	}
	b.grid = hypercube.SolveGrid(gs.q, gs.bits, gs.p, b.x, b.betas, b.alpha)
}

// overweightThreshold is the frequency above which a heavy hitter over
// attrs (extending x_j, with bin exponent β_j in B) is overweight for B:
// m_j / p^{β_j + Σ_{i ∈ attrs−x_j} e_i^{(B)}}. The paper multiplies it by
// N_bc, the number of bin combinations, to prove |C'(B)| ≤ p; at practical
// sizes that makes the threshold vacuous (nothing is ever overweight and
// the algorithm degenerates to plain HC), so the factor here is 1, which
// never affects coverage and lets the mechanism engage.
func (gs *generalState) overweightThreshold(b *binCombo, j int, extraVars []int) float64 {
	exp := b.betas[j]
	for _, v := range extraVars {
		exp += b.grid.Exponents[slices.Index(b.grid.Vars, v)]
	}
	rs := gs.st[gs.q.Atoms[j].Name]
	return float64(rs.M) / math.Pow(float64(gs.p), exp)
}

// buildCombos runs the inductive Appendix-D construction level by level,
// solving each combination's LP before extending it. Extensions land at
// strictly higher levels, so a level's C' sets are complete when it is
// reached and iterating over a snapshot of it is safe.
func (gs *generalState) buildCombos() {
	// B∅.
	empty := gs.comboFor(query.NewVarSet(), nil, data.Tuple{})
	empty.cprime[""] = data.Tuple{}

	for level := 0; level <= gs.q.NumVars(); level++ {
		var current []*binCombo
		for _, b := range gs.combos {
			if len(b.xSorted) == level && len(b.cprime) > 0 {
				current = append(current, b)
			}
		}
		sort.Slice(current, func(i, j int) bool { return current[i].key() < current[j].key() })
		for _, b := range current {
			gs.solveLP(b)
			gs.extend(b)
		}
	}
}

// extend finds, for every h' ∈ C'(B') and every relation S_j, the
// overweight heavy hitters of S_j extending h' and inserts the extended
// assignments into the C' of their bin combinations.
func (gs *generalState) extend(bPrime *binCombo) {
	q := gs.q
	for j, a := range q.Atoms {
		// Variables of S_j outside x': candidate extension sets y.
		var outside []int
		for _, v := range a.Vars {
			if !bPrime.x.Contains(v) {
				outside = append(outside, v)
			}
		}
		if len(outside) == 0 {
			continue
		}
		rs := gs.st[a.Name]
		for mask := 1; mask < 1<<len(outside); mask++ {
			var y []int
			for bit, v := range outside {
				if mask&(1<<bit) != 0 {
					y = append(y, v)
				}
			}
			// xNew = x' ∪ y; x_jNew positions within the atom.
			xNew := query.NewVarSet(append(append([]int(nil), bPrime.xSorted...), y...)...)
			xNewSorted := xNew.Sorted()
			attrs := make([]int, 0, len(xNewSorted))
			for _, v := range xNewSorted {
				if pos := gs.varPos[j][v]; pos >= 0 {
					attrs = append(attrs, pos)
				}
			}
			sort.Ints(attrs)
			hitters := rs.Heavy(attrs)
			if len(hitters) == 0 {
				continue
			}
			thresholdVars := y // attrs − x'_j corresponds to the new vars y
			for hKey, hPrime := range bPrime.cprime {
				_ = hKey
				// h' restricted to this atom, for the extension check.
				pAttrs, pVals, hasPrev := gs.atomProj(j, bPrime.xSorted, hPrime)
				threshold := gs.overweightThreshold(bPrime, j, thresholdVars)
				for _, hh := range hitters {
					vals := data.Tuple(hh.Key)
					if hasPrev && !consistentWith(attrs, vals, pAttrs, pVals) {
						continue
					}
					if float64(hh.Count) <= threshold {
						continue // not overweight
					}
					// Build the extended assignment h over xNew.
					h := make(data.Tuple, len(xNewSorted))
					for idx, v := range xNewSorted {
						if pos := gs.varPos[j][v]; pos >= 0 {
							// Value from the hitter.
							for ai, attr := range attrs {
								if attr == pos {
									h[idx] = vals[ai]
								}
							}
						} else {
							// Value from h' (v ∈ x' and not in S_j).
							for pi, pv := range bPrime.xSorted {
								if pv == v {
									h[idx] = hPrime[pi]
								}
							}
						}
					}
					combo := gs.comboFor(xNew, xNewSorted, h)
					combo.cprime[h.Key()] = h
				}
			}
		}
	}
}

// consistentWith checks that the hitter values (over attrs) agree with the
// previous assignment's values (over pAttrs ⊆ attrs).
func consistentWith(attrs []int, vals data.Tuple, pAttrs []int, pVals data.Tuple) bool {
	for pi, pa := range pAttrs {
		for ai, a := range attrs {
			if a == pa && vals[ai] != pVals[pi] {
				return false
			}
		}
	}
	return true
}
