// Package bounds computes the communication lower bounds of
// Beame–Koutris–Suciu: the simple-statistics bound of Theorem 3.5
// (L(u,M,p) maximized over the non-dominated packing vertices pk(q)), the
// residual-query bounds of Theorem 4.7 for skewed data with known degree
// sequences, the space exponent of §3.3, and the expected output size of
// the random-instance space (Lemma A.1).
//
// All bounds are reported in bits, matching the model's load definition.
package bounds

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/packing"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/stats"
)

// K returns K(u, M) = Π_j M_j^{u_j} (Eq. 6). M in bits.
func K(u, m []float64) float64 {
	if len(u) != len(m) {
		panic("bounds: K length mismatch")
	}
	out := 1.0
	for j := range u {
		if u[j] == 0 {
			continue // M^0 = 1 even for empty relations
		}
		out *= math.Pow(m[j], u[j])
	}
	return out
}

// sum returns u = Σ_j u_j, the value of the packing u.
func sum(u []float64) float64 {
	total := 0.0
	for _, uj := range u {
		total += uj
	}
	return total
}

// L returns L(u, M, p) = (K(u, M)/p)^{1/u} with u = Σ_j u_j (Eq. 7).
// A zero packing yields 0 (it bounds nothing).
func L(u, m []float64, p int) float64 {
	total := sum(u)
	if total == 0 {
		return 0
	}
	return math.Pow(K(u, m)/float64(p), 1/total)
}

// PackingBound is one packing vertex with its induced bound.
type PackingBound struct {
	U     []float64
	Bound float64 // bits
}

// SimpleLower computes L_lower = max_{u ∈ pk(q)} L(u, M, p) (Theorems 3.5
// and 3.6) and the per-vertex table (the content of Example 3.7's table).
// bitsM holds M_j in bits per atom.
func SimpleLower(q *query.Query, bitsM []float64, p int) (float64, []PackingBound) {
	if len(bitsM) != q.NumAtoms() {
		panic("bounds: bitsM length mismatch")
	}
	var best float64
	var table []PackingBound
	for _, v := range packing.PK(q) {
		u := v.Floats()
		b := L(u, bitsM, p)
		table = append(table, PackingBound{U: u, Bound: b})
		if b > best {
			best = b
		}
	}
	sort.Slice(table, func(i, j int) bool { return table[i].Bound > table[j].Bound })
	return best, table
}

// SpaceExponent returns the space exponent ε for the given statistics
// (§3.3): writing M = max_j M_j and the optimal load as M/p^{v*}, the space
// exponent is 1 − v*. Relations with M_j ≤ M/p are broadcast (removed), as
// the paper prescribes.
func SpaceExponent(q *query.Query, bitsM []float64, p int) float64 {
	maxM := 0.0
	for _, m := range bitsM {
		if m > maxM {
			maxM = m
		}
	}
	if maxM == 0 {
		return 0
	}
	// ν_j from M_j = M/p^{ν_j}; broadcast relations get weight-0 atoms by
	// clamping ν_j at 1 (their contribution to the bound vanishes).
	logP := math.Log(float64(p))
	nu := make([]float64, len(bitsM))
	for j, m := range bitsM {
		if m <= maxM/float64(p) {
			nu[j] = 1
		} else {
			nu[j] = math.Log(maxM/m) / logP
		}
	}
	vStar := math.Inf(1)
	for _, vtx := range packing.PK(q) {
		u := vtx.Floats()
		total := 0.0
		dot := 0.0
		for j := range u {
			total += u[j]
			dot += nu[j] * u[j]
		}
		if total == 0 {
			continue
		}
		if v := dot + 1/total; v < vStar {
			vStar = v
		}
	}
	if math.IsInf(vStar, 1) {
		return 0
	}
	eps := 1 - vStar
	if eps < 0 {
		eps = 0
	}
	return eps
}

// ResidualBound is the bound L_x(u, M, p) of one saturating packing for one
// variable set x (Theorem 4.7, Eq. 12).
type ResidualBound struct {
	X     []int // variable indices (sorted)
	U     []float64
	Bound float64 // bits
}

// ResidualLower computes, for a fixed variable set x, the best bound
//
//	L_x(u, M, p) = (Σ_h Π_j M_j(h_j)^{u_j} / p)^{1/u}
//
// over all packings u of the residual query q_x (restricted to the
// polytope's vertices) that saturate x. Frequencies M_j(h_j) are taken
// from the database itself: the sum ranges over the joint assignments h to
// x realized in the data (absent assignments contribute M_j(h_j) = 0 for
// atoms with u_j > 0, hence vanish). Returns 0 if no vertex saturates x.
func ResidualLower(q *query.Query, x query.VarSet, db *data.Database, p int) (float64, []ResidualBound) {
	mustValidate(q)
	ps := new(stats.Pass)
	defer ps.Release()
	return residualLower(q, x, db, p, ps)
}

// atomProj is atom j's projection onto its x-variables x_j.
type atomProj struct {
	attrs []int       // attribute positions of x_j in the atom
	xIdx  []int       // matching indices into xSorted
	freq  *stats.Freq // the atom's relation counted over attrs; nil when x_j = ∅
	key   []int64     // h_j scratch, in attrs order
	bitsW float64     // bits per tuple of the atom
	mBits float64     // full M_j in bits
}

// residual is the Eq. (12) work of one variable set x with everything it
// reads from the statistics pass already resolved, so that evaluating it
// only reads Freqs and projections: the saturating packings as floats, each
// atom's projection, and the support query over x's variables.
type residual struct {
	xSorted []int
	sat     [][]float64
	projs   []atomProj
	support *query.Query // over x's variables; one atom per atom meeting x
	rels    map[string]*data.Relation
}

func residualLower(q *query.Query, x query.VarSet, db *data.Database, p int, ps *stats.Pass) (float64, []ResidualBound) {
	r := newResidual(q, x, db, p, math.Inf(-1), ps)
	if r == nil {
		return 0, nil
	}
	best, table := r.eval(p)
	sort.Slice(table, func(i, j int) bool { return table[i].Bound > table[j].Bound })
	return best, table
}

// newResidual resolves x's saturating packings and, through the pass, every
// atom's frequencies. It returns nil when no vertex saturates x, or when
// x's cap at p cannot beat floor: then x contributes no bound that wins,
// and the projections its support join would read are never built.
func newResidual(q *query.Query, x query.VarSet, db *data.Database, p int, floor float64, ps *stats.Pass) *residual {
	sat := packing.SaturatingPackings(q, x)
	if len(sat) == 0 {
		return nil
	}
	r := &residual{
		xSorted: x.Sorted(),
		projs:   make([]atomProj, q.NumAtoms()),
		support: &query.Query{Name: "support"},
		rels:    make(map[string]*data.Relation),
	}
	for _, vtx := range sat {
		r.sat = append(r.sat, vtx.Floats())
	}
	for _, v := range r.xSorted {
		r.support.Vars = append(r.support.Vars, q.Vars[v])
	}
	for j, a := range q.Atoms {
		pr := &r.projs[j]
		rel := db.MustGet(a.Name)
		pr.bitsW = float64(rel.BitsPerTuple())
		pr.mBits = float64(rel.Bits())
		for pos, v := range a.Vars {
			for xi, xv := range r.xSorted {
				if v == xv {
					pr.attrs = append(pr.attrs, pos)
					pr.xIdx = append(pr.xIdx, xi)
				}
			}
		}
		if len(pr.attrs) == 0 {
			continue
		}
		pr.freq = ps.Frequencies(rel, pr.attrs)
		pr.key = make([]int64, len(pr.attrs))
		r.support.Atoms = append(r.support.Atoms, query.Atom{Name: a.Name, Vars: pr.xIdx})
	}
	if r.cap(p)*(1+1e-9) <= floor {
		return nil
	}
	for j, a := range q.Atoms {
		if pr := &r.projs[j]; pr.freq != nil {
			r.rels[a.Name] = ps.Projection(db.MustGet(a.Name), pr.attrs)
		}
	}
	return r
}

// cap bounds every L_x(u, M, p) from above without the support join. The
// support has at most AGM(support query, each projection's distinct keys)
// assignments, and never more than maxSupport; each term Π_j M_j(h_j)^{u_j}
// is at most Π_j maxdeg_j^{u_j}, where maxdeg_j is atom j's largest
// frequency in bits (M_j when the atom does not meet x). An atom that meets
// x and has no rows empties the support: the cap is 0.
func (r *residual) cap(p int) float64 {
	maxdeg := make([]float64, len(r.projs))
	var distinct []float64
	for j := range r.projs {
		pr := &r.projs[j]
		if pr.freq == nil {
			maxdeg[j] = pr.mBits
			continue
		}
		if pr.freq.Distinct() == 0 {
			return 0
		}
		distinct = append(distinct, float64(pr.freq.Distinct()))
		// No count exceeds Total − Distinct + 1, and with that at 1 every
		// count is 1: the walk is needed only when some key repeats.
		most := pr.freq.Total - int64(pr.freq.Distinct()) + 1
		if most > 1 {
			most = 0
			pr.freq.Each(func(_ []int64, n int64) { most = max(most, n) })
		}
		maxdeg[j] = float64(most) * pr.bitsW
	}
	rows := 1.0 // x = ∅: the one empty assignment
	if len(r.xSorted) > 0 {
		rows = math.Min(packing.AGMBound(r.support, distinct), maxSupport)
	}
	var best float64
	for _, u := range r.sat {
		if total := sum(u); total > 0 {
			best = math.Max(best, math.Pow(rows*K(u, maxdeg)/float64(p), 1/total))
		}
	}
	return best
}

// eval computes L_x(u, M, p) for every saturating packing u, in packing
// order, and the best of them. It walks the support once, reading each
// atom's M_j(h_j) once per assignment h, and adds h's term to every
// packing's own sum, so each sum adds its terms in support order. It writes
// only r's own scratch, so distinct residuals evaluate concurrently.
func (r *residual) eval(p int) (float64, []ResidualBound) {
	assignments := r.supportAssignments()
	sums := make([]float64, len(r.sat))
	mjh := make([]float64, len(r.projs))
	for i := 0; i < assignments.N; i++ {
		h := assignments.At(i)
		for j := range r.projs {
			pr := &r.projs[j]
			if pr.freq == nil {
				mjh[j] = pr.mBits // x_j = ∅: M_j(h) = M_j
				continue
			}
			for a, xi := range pr.xIdx {
				pr.key[a] = h[xi]
			}
			mjh[j] = float64(pr.freq.Count(pr.key)) * pr.bitsW
		}
		for k, u := range r.sat {
			term := 1.0
			for j, uj := range u {
				if uj == 0 {
					continue
				}
				if mjh[j] == 0 {
					term = 0
					break
				}
				term *= math.Pow(mjh[j], uj)
			}
			sums[k] += term
		}
	}
	var best float64
	var table []ResidualBound
	for k, u := range r.sat {
		total := sum(u)
		if total == 0 {
			continue
		}
		b := math.Pow(sums[k]/float64(p), 1/total)
		table = append(table, ResidualBound{X: r.xSorted, U: u, Bound: b})
		if b > best {
			best = b
		}
	}
	return best, table
}

// maxSupport caps the number of joint assignments enumerated per variable
// set. The sum in Eq. (12) over a truncated support is still a valid lower
// bound (every term is non-negative); the cap only weakens pathological
// cases where the support join explodes.
const maxSupport = 1 << 18

// supportAssignments returns joint assignments to xSorted realized in the
// data: the join of the atom projections onto their x-variables, truncated
// at maxSupport. Each projection lists its table's distinct keys in
// first-occurrence order, so the join — and with it the Eq. (12) summation
// order — is a function of the data's row order alone.
func (r *residual) supportAssignments() data.Rows {
	switch {
	case len(r.xSorted) == 0:
		return data.Rows{N: 1} // the one empty assignment
	case len(r.support.Atoms) == 0:
		return data.Rows{}
	}
	return join.Rows(r.support, r.rels, maxSupport)
}

// BestLower maximizes over the simple bound (x = ∅) and the residual
// bounds for every non-empty variable subset of size ≤ maxX, returning the
// winning bound and a description of where it came from (Theorem 1.2's
// L_lower = max_{x,u} L_x(u, M, p)).
func BestLower(q *query.Query, db *data.Database, p int, maxX int) (float64, string) {
	mustValidate(q)
	ps := new(stats.Pass)
	defer ps.Release()
	return BestLowerWith(q, db, p, maxX, ps)
}

// mustValidate panics on a query outside the model, which the bounds
// would otherwise misread (a self-join's atoms share one relation name).
func mustValidate(q *query.Query) {
	if err := q.Validate(); err != nil {
		panic(fmt.Sprintf("bounds: invalid query: %v", err))
	}
}

// BestLowerWith is BestLower counting through the caller's statistics
// pass: one query's variable sets ask for the same few (relation, attribute
// list) groupings over and over, and so do the planners sharing the pass.
// It does not validate q; the caller has.
//
// The variable sets are resolved against the pass one by one, in mask
// order, so only the caller writes the pass. A set whose cap cannot beat
// the simple bound is dropped there, before its support join: the
// reduction below takes only a strictly larger bound, so dropping it
// changes neither value nor description, and the simple bound is known
// before any worker starts. The remaining support joins and Eq. (12) sums
// run on internal/par workers that only read; the bounds are reduced in
// mask order by the serial b > best rule, so neither the value nor the
// description depends on the workers.
func BestLowerWith(q *query.Query, db *data.Database, p int, maxX int, ps *stats.Pass) (float64, string) {
	bitsM := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		bitsM[j] = float64(db.MustGet(a.Name).Bits())
	}
	best, _ := SimpleLower(q, bitsM, p)
	desc := "simple (x = ∅)"
	k := q.NumVars()
	if maxX <= 0 || maxX > k {
		maxX = k
	}
	var jobs []*residual
	for mask := 1; mask < 1<<k; mask++ {
		var vs []int
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				vs = append(vs, i)
			}
		}
		if len(vs) > maxX {
			continue
		}
		if r := newResidual(q, query.NewVarSet(vs...), db, p, best, ps); r != nil {
			jobs = append(jobs, r)
		}
	}
	for i, b := range evalAll(jobs, p) {
		if b > best {
			best = b
			desc = fmt.Sprintf("residual x=%v", jobs[i].xSorted)
		}
	}
	return best, desc
}

// evalAll returns each residual's best bound, in order, evaluated on
// par.Each's workers.
func evalAll(jobs []*residual, p int) []float64 {
	out := make([]float64, len(jobs))
	par.Each(len(jobs), func(i int) { out[i], _ = jobs[i].eval(p) })
	return out
}
