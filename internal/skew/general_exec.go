package skew

import (
	"math"
	"sort"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/stats"
)

// exclCheck is one overweight-exclusion test for a tuple of an atom within
// a bin combination: project the tuple onto attrs and look the projection
// up among the overweight keys. Frequencies are compared against the
// overweight threshold at plan time, so the routing hot path probes a
// dictionary of the (few) overweight keys and needs neither counts nor the
// planning state (cached plans must not pin the plan-time database). A
// check over attributes with no overweight key is not planned at all.
type exclCheck struct {
	attrs []int            // attribute positions within the atom (sorted), ⊋ x_j
	over  *data.GroupIndex // the overweight projections over attrs; never nil
}

// atomPlan is the block lookup of one atom within one bin combination.
type atomPlan struct {
	xjAttrs []int // positions of x_j in the atom (sorted)
	// blockCode turns a tuple's projection onto xjAttrs into an index into
	// blocks, the block bases of the assignments with that projection. Set
	// whenever x_j ≠ ∅: a planned combination has at least one assignment.
	blockCode *data.GroupIndex
	blocks    [][]int
}

// basesOf returns the block bases a tuple with the given projection onto
// xjAttrs routes to (none when no assignment carries it).
//
//skewlint:noalloc
func (ap *atomPlan) basesOf(proj []int64) []int {
	if c := ap.blockCode.Lookup(proj); c >= 0 {
		return ap.blocks[c]
	}
	return nil
}

// comboPlan is the executable layout of one bin combination: an HC subgrid
// of blockSize virtual servers per assignment h ∈ C'(B).
type comboPlan struct {
	freeDims  []int // V−x, sorted (grid dimensions)
	shares    []int // integer share per free dim, product = blockSize
	strides   []int
	blockSize int
	byAtom    []atomPlan
}

// GeneralPlan is the §4.2 planner output: every bin combination's HC
// subgrid layout lowered to the unified executor's PhysicalPlan (run it with
// exec.Run), plus the combinations themselves. Plans are reusable across
// executions.
type GeneralPlan struct {
	Phys *exec.PhysicalPlan
	// Combos lists the planned bin combinations (those with a non-empty
	// C'(B)) in the order of their sorted keys, which is also the order of
	// their virtual-server ranges.
	Combos []Combo
	// PredictedBits is max_B p^{λ(B)} (Theorem 4.6 up to log factors).
	PredictedBits float64
}

// plan lays out virtual servers for every bin combination and lowers the
// layout to a PhysicalPlan.
func (gs *generalState) plan(cfg GeneralConfig) *GeneralPlan {
	keys := make([]string, 0, len(gs.combos))
	for key, b := range gs.combos {
		if len(b.cprime) > 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)

	virtual := 0
	predicted := 0.0
	var plans []*comboPlan
	combos := make([]Combo, 0, len(keys))
	steps := make([][]spanStep, gs.q.NumAtoms()) // per atom, one per combination
	for _, key := range keys {
		b := gs.combos[key]
		rangeLo := virtual
		var freeDims []int
		for i := 0; i < gs.q.NumVars(); i++ {
			if !b.x.Contains(i) {
				freeDims = append(freeDims, i)
			}
		}
		ideal := make([]float64, len(freeDims))
		for di, v := range freeDims {
			ideal[di] = math.Pow(float64(gs.p), b.expo[v])
		}
		budget := int(math.Pow(float64(gs.p), 1-b.alpha))
		if budget < 1 {
			budget = 1
		}
		shares := hypercube.RoundToBudget(ideal, budget)
		blockSize := 1
		strides := make([]int, len(shares))
		for i := len(shares) - 1; i >= 0; i-- {
			strides[i] = blockSize
			blockSize *= shares[i]
		}
		plan := &comboPlan{
			freeDims: freeDims, shares: shares,
			strides: strides, blockSize: blockSize,
			byAtom: make([]atomPlan, gs.q.NumAtoms()),
		}
		// Deterministic block layout per assignment.
		hKeys := make([]string, 0, len(b.cprime))
		for hk := range b.cprime {
			hKeys = append(hKeys, hk)
		}
		sort.Strings(hKeys)
		bases := make(map[string]int, len(hKeys))
		for _, hk := range hKeys {
			bases[hk] = virtual
			virtual += blockSize
		}
		// Per-atom projections and exclusion checks.
		for j := range gs.q.Atoms {
			ap := &plan.byAtom[j]
			var allBases []int  // every block, when x_j = ∅
			var projs []int64   // else the assignments' projections onto x_j, end to end
			var projBases []int // and the block base of each
			for _, hk := range hKeys {
				h := b.cprime[hk]
				attrs, vals, ok := gs.atomProj(j, b.xSorted, h)
				if !ok {
					allBases = append(allBases, bases[hk])
					continue
				}
				ap.xjAttrs = attrs
				projs = append(projs, vals...)
				projBases = append(projBases, bases[hk])
			}
			if ap.blockCode = stats.Dictionary(len(ap.xjAttrs), projs); ap.blockCode != nil {
				ap.blocks = make([][]int, ap.blockCode.Groups())
				for c := range ap.blocks {
					for _, row := range ap.blockCode.Rows(c) {
						ap.blocks[c] = append(ap.blocks[c], projBases[row])
					}
				}
			}
			steps[j] = append(steps[j], spanStep{
				plan: plan, ap: ap,
				bases: allBases, resolved: len(ap.xjAttrs) == 0,
				exclude: gs.exclusionChecks(j, b),
			})
		}
		plans = append(plans, plan)
		pl := math.Pow(float64(gs.p), b.lambda)
		combos = append(combos, Combo{
			Vars: b.xSorted, Bins: b.bins, CSize: len(b.cprime),
			Lambda: b.lambda, Alpha: b.alpha, Predicted: pl,
			Lo: rangeLo, Hi: virtual,
		})
		predicted = max(predicted, pl)
	}
	if virtual == 0 {
		virtual = 1
	}

	atomIndex := make(map[string]int, gs.q.NumAtoms())
	maxScratch := 0
	for j, a := range gs.q.Atoms {
		atomIndex[a.Name] = j
		if a.Arity() > maxScratch {
			maxScratch = a.Arity()
		}
	}
	for _, plan := range plans {
		if len(plan.freeDims) > maxScratch {
			maxScratch = len(plan.freeDims)
		}
	}

	gp := &GeneralPlan{Combos: combos, PredictedBits: predicted}
	q := gs.q
	gp.Phys = &exec.PhysicalPlan{
		Strategy:  "bin-combination",
		Virtual:   virtual,
		Physical:  gs.p,
		Relations: q.AtomNames(),
		Router: &generalRouter{
			varPos:    gs.varPos,
			steps:     steps,
			atomIndex: atomIndex,
			family:    hashing.NewFamily(cfg.Seed),
			scratch:   maxScratch,
		},
		Query: q,
		// Overlapping bin combinations may each produce the same answer.
		Dedup:         true,
		PredictedBits: predicted,
	}
	// Partition hints: for each atom, the single attribute carrying the
	// largest heavy-hitter mass — its runs gain the most from
	// span compilation (generalRouter accepts any attribute, the hint only
	// picks which layout to maintain). Atoms with no single-attribute heavy
	// hitter are left unhinted.
	hinted := make(map[string]bool, len(q.Atoms))
	for _, a := range q.Atoms {
		if hinted[a.Name] {
			continue
		}
		hinted[a.Name] = true
		bestAttr, bestMass := -1, int64(0)
		for pos := 0; pos < a.Arity(); pos++ {
			fm := gs.st[a.Name].FreqMapFor([]int{pos})
			if fm == nil {
				continue
			}
			var mass int64
			fm.Each(func(_ []int64, c int64) { mass += c })
			if mass > bestMass {
				bestAttr, bestMass = pos, mass
			}
		}
		if bestAttr >= 0 {
			gp.Phys.PartitionHints = append(gp.Phys.PartitionHints, exec.PartitionHint{Rel: a.Name, Attr: bestAttr})
		}
	}
	return gp
}

// generalRouter routes tuples to every bin combination's subgrid. It
// carries only plan-time tables (thresholds and frequency maps are frozen
// into the comboPlans), never the planning state, so cached plans don't
// pin the database they were built from. Its per-tuple projection and
// odometer scratch is reused across calls, so a generalRouter is not safe
// for concurrent use; it implements mpc.PerSenderRouter and mpc.Round
// gives each sender its own instance.
type generalRouter struct {
	varPos    [][]int      // variable index → attribute position per atom
	steps     [][]spanStep // per atom: one step per bin combination
	atomIndex map[string]int
	family    *hashing.Family
	scratch   int // max of atom arities and free-dim counts
	// Per-tuple scratch, reused across Destinations calls.
	proj   data.Tuple
	row    data.Tuple
	coords []int
	fixed  []bool
}

// ForSender implements mpc.PerSenderRouter: the copy shares the immutable
// plan tables but owns fresh scratch.
func (r *generalRouter) ForSender() mpc.Router {
	c := *r
	c.proj = make(data.Tuple, r.scratch)
	c.row = make(data.Tuple, r.scratch)
	c.coords = make([]int, r.scratch)
	c.fixed = make([]bool, r.scratch)
	return &c
}

func (r *generalRouter) ensureScratch() {
	if r.proj == nil {
		r.proj = make(data.Tuple, r.scratch)
		r.row = make(data.Tuple, r.scratch)
		r.coords = make([]int, r.scratch)
		r.fixed = make([]bool, r.scratch)
	}
}

// Destinations implements mpc.Router over the bin-combination layout. The
// row is gathered into reusable scratch: the §4.2 projections touch every
// attribute subset, so unlike the HC and skew-join routers there is no
// untouched column to skip.
//
//skewlint:noalloc
func (r *generalRouter) Destinations(rel *data.Relation, row int, dst []int) []int {
	j, ok := r.atomIndex[rel.Name]
	if !ok {
		return dst
	}
	r.ensureScratch()
	return r.route(r.steps[j], j, rel.ReadTuple(row, r.row[:rel.Arity]), dst)
}

// spanStep is one bin combination's routing of one atom. The steps every
// tuple takes (generalRouter.steps) leave everything but an empty x_j to be
// decided per row; a heavy run's steps have the exclusion checks and block
// lookups over the partition attribute decided at compile time.
type spanStep struct {
	plan *comboPlan
	ap   *atomPlan
	// bases is the resolved block list when resolved is true (xjAttrs is
	// empty or exactly the partition attribute); otherwise the per-row
	// basesOf lookup remains.
	bases    []int
	resolved bool
	exclude  []exclCheck // the overweight checks still to run per row
}

// route appends the destinations of tuple t of atom j over steps.
//
//skewlint:noalloc
func (r *generalRouter) route(steps []spanStep, j int, t data.Tuple, dst []int) []int {
next:
	for si := range steps {
		st := &steps[si]
		// Overweight exclusion (the S^(B)_j membership test).
		for _, ec := range st.exclude {
			proj := r.proj[:len(ec.attrs)]
			for pi, a := range ec.attrs {
				proj[pi] = t[a]
			}
			if ec.over.Lookup(proj) >= 0 {
				continue next
			}
		}
		bases := st.bases
		if !st.resolved {
			proj := r.proj[:len(st.ap.xjAttrs)]
			for pi, a := range st.ap.xjAttrs {
				proj[pi] = t[a]
			}
			bases = st.ap.basesOf(proj)
		}
		if len(bases) > 0 {
			dst = r.appendSubcube(dst, st.plan, j, t, bases)
		}
	}
	return dst
}

// SpansAttr implements mpc.SpanRouter: any single attribute of a routed
// atom helps — every exclusion check or block lookup over exactly that
// attribute resolves once per run.
func (r *generalRouter) SpansAttr(rel *data.Relation, attr int) bool {
	_, ok := r.atomIndex[rel.Name]
	return ok
}

// CompileSpan implements mpc.SpanRouter: for each bin combination, run the
// partition-attribute exclusion checks and block lookups once for the whole
// run, dropping combinations that exclude the run or route it nowhere. The
// surviving per-row work (multi-attribute exclusions, other-attribute
// lookups, subcube hashing) runs through a closure over the reduced list.
func (r *generalRouter) CompileSpan(rel *data.Relation, attr int, v int64, route *mpc.SpanRoute) bool {
	j, ok := r.atomIndex[rel.Name]
	if !ok {
		return true // not an input of this plan: ship nothing
	}
	r.ensureScratch()
	run := r.proj[:1]
	run[0] = v
	steps := make([]spanStep, 0, len(r.steps[j]))
next:
	for _, st := range r.steps[j] {
		all := st.exclude
		st.exclude = nil
		for _, ec := range all {
			if len(ec.attrs) != 1 || ec.attrs[0] != attr {
				st.exclude = append(st.exclude, ec)
			} else if ec.over.Lookup(run) >= 0 {
				continue next // the whole run is overweight here
			}
		}
		if xj := st.ap.xjAttrs; len(xj) == 1 && xj[0] == attr {
			st.bases, st.resolved = st.ap.basesOf(run), true
		}
		if st.resolved && len(st.bases) == 0 {
			continue // the run maps to no block of this combination
		}
		steps = append(steps, st)
	}
	if len(steps) == 0 {
		return true // uniform empty: every combination excluded the run
	}
	cols := rel.Columns()
	arity := rel.Arity
	route.PerRow = func(row int, dst []int) []int {
		t := r.row[:arity]
		for a, col := range cols {
			t[a] = col[row]
		}
		return r.route(steps, j, t, dst)
	}
	return true
}

// appendSubcube appends, for every base block, the servers of the HC
// subcube that tuple t of atom j occupies: dimensions of vars(S_j)−x_j are
// fixed by hashing, the remaining free dimensions replicate (odometer over
// the free dimensions, reusing the router's scratch).
func (r *generalRouter) appendSubcube(dst []int, plan *comboPlan, j int, t data.Tuple, bases []int) []int {
	nd := len(plan.freeDims)
	coords, fixed := r.coords[:nd], r.fixed[:nd]
	offset := 0
	for di, dim := range plan.freeDims {
		coords[di] = 0
		fixed[di] = false
		if pos := r.varPos[j][dim]; pos >= 0 {
			coords[di] = r.family.Hash(dim, t[pos], plan.shares[di])
			fixed[di] = true
			offset += coords[di] * plan.strides[di]
		}
	}
	for {
		for _, base := range bases {
			dst = append(dst, base+offset)
		}
		di := nd - 1
		for ; di >= 0; di-- {
			if fixed[di] {
				continue
			}
			if coords[di]+1 < plan.shares[di] {
				coords[di]++
				offset += plan.strides[di]
				break
			}
			offset -= coords[di] * plan.strides[di]
			coords[di] = 0
		}
		if di < 0 {
			return dst
		}
	}
}

// exclusionChecks enumerates the overweight tests for atom j within B: all
// attribute subsets x” ⊆ vars(S_j) that properly extend x_j (any
// non-empty subset when x_j = ∅).
func (gs *generalState) exclusionChecks(j int, b *binCombo) []exclCheck {
	atom := gs.q.Atoms[j]
	var xjPos []int
	inXj := make(map[int]bool)
	for _, v := range atom.Vars {
		if b.x.Contains(v) {
			xjPos = append(xjPos, gs.varPos[j][v])
			inXj[gs.varPos[j][v]] = true
		}
	}
	sort.Ints(xjPos)
	var outside []int // positions of vars(S_j) − x_j
	for pos := range atom.Vars {
		if !inXj[pos] {
			outside = append(outside, pos)
		}
	}
	var checks []exclCheck
	for mask := 1; mask < 1<<len(outside); mask++ {
		attrs := append([]int(nil), xjPos...)
		var extra []int
		for bit, pos := range outside {
			if mask&(1<<bit) != 0 {
				attrs = append(attrs, pos)
				extra = append(extra, atom.Vars[pos])
			}
		}
		sort.Ints(attrs)
		// N_bc · m_j / p^{β_j + Σ e_i} over the extension variables.
		threshold := gs.overweightThreshold(b, j, extra)
		var keys []int64
		if fm := gs.st[atom.Name].FreqMapFor(attrs); fm != nil {
			fm.Each(func(key []int64, freq int64) {
				if float64(freq) > threshold {
					keys = append(keys, key...)
				}
			})
		}
		if over := stats.Dictionary(len(attrs), keys); over != nil {
			checks = append(checks, exclCheck{attrs: attrs, over: over})
		}
	}
	return checks
}
