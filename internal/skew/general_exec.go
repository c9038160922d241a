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

// atomPlan is the routing of one atom within one bin combination: the
// block lookup of its heavy assignments and its HC subcube of the
// combination's grid over V−x, which every block replicates.
type atomPlan struct {
	xjAttrs []int // positions of x_j in the atom (sorted)
	// blockCode turns a tuple's projection onto xjAttrs into an index into
	// blocks, the block bases of the assignments with that projection. Set
	// whenever x_j ≠ ∅: a planned combination has at least one assignment.
	blockCode *data.GroupIndex
	blocks    [][]int
	cube      *hypercube.Subcube
}

// blocksOf returns the block bases of blockCode's group c (none for the -1
// of a projection no assignment carries).
func (ap *atomPlan) blocksOf(c int) []int {
	if c < 0 {
		return nil
	}
	return ap.blocks[c]
}

// GeneralPlan is the §4.2 planner output: every bin combination's HC
// subgrid layout lowered to the unified executor's PhysicalPlan (run it as
// exec.OneRound(Phys)), plus the combinations themselves. Plans are reusable across
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

	family := hashing.NewFamily(cfg.Seed)
	virtual := 0
	predicted := 0.0
	combos := make([]Combo, 0, len(keys))
	routes := make([]atomRoute, gs.q.NumAtoms()) // per atom, one step per combination
	for _, key := range keys {
		b := gs.combos[key]
		rangeLo := virtual
		blockSize := b.grid.Cells()
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
		// Per-atom projections, subcubes and exclusion checks.
		for j, a := range gs.q.Atoms {
			ap := &atomPlan{cube: b.grid.Subcube(a, family)}
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
			routes[j] = append(routes[j], spanStep{
				ap:    ap,
				bases: allBases, resolved: len(ap.xjAttrs) == 0,
				exclude: gs.exclusionChecks(j, b),
			})
		}
		pl := math.Pow(float64(gs.p), b.grid.Lambda)
		combos = append(combos, Combo{
			Vars: b.xSorted, Bins: b.bins, CSize: len(b.cprime),
			Lambda: b.grid.Lambda, Alpha: b.alpha, Predicted: pl,
			Lo: rangeLo, Hi: virtual,
		})
		predicted = max(predicted, pl)
	}
	if virtual == 0 {
		virtual = 1
	}

	gp := &GeneralPlan{Combos: combos, PredictedBits: predicted}
	q := gs.q
	router := make(mpc.Routes, len(q.Atoms))
	for j, a := range q.Atoms {
		router[a.Name] = &routes[j]
	}
	gp.Phys = &exec.PhysicalPlan{
		Strategy:  "bin-combination",
		Virtual:   virtual,
		Physical:  gs.p,
		Relations: q.AtomNames(),
		Router:    router,
		Query:     q,
		// Overlapping bin combinations may each produce the same answer.
		Dedup:         true,
		PredictedBits: predicted,
	}
	// Partition hints: for each atom, the single attribute carrying the
	// largest heavy-hitter mass — its runs gain the most from
	// span compilation (atomRoute accepts any attribute, the hint only
	// picks which layout to maintain). Atoms with no single-attribute heavy
	// hitter are left unhinted.
	for _, a := range q.Atoms {
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

// atomRoute is one atom's route over the bin-combination layout, to every
// bin combination's subgrid: one step per bin combination. It carries only
// plan-time tables (thresholds and frequency maps are frozen into the
// steps), never the planning state, so cached plans don't pin the database
// they were built from. It reads each row in place and keeps no scratch, so
// one route serves every sender concurrently.
type atomRoute []spanStep

// spanStep is one bin combination's routing of one atom. The steps every
// tuple takes (an atomRoute) leave everything but an empty x_j to be
// decided per row; a heavy run's steps have the exclusion checks and block
// lookups over the partition attribute decided at compile time.
type spanStep struct {
	ap *atomPlan
	// bases is the resolved block list when resolved is true (xjAttrs is
	// empty or exactly the partition attribute); otherwise the per-row
	// block lookup remains.
	bases    []int
	resolved bool
	exclude  []exclCheck // the overweight checks still to run per row
}

// Destinations implements mpc.Route: over its steps, every combination that
// does not exclude the row places it, through the atom's subcube, in each
// block its projection onto x_j maps to. The exclusion checks and block
// lookups probe the row's columns in place.
//
//skewlint:noalloc
func (a atomRoute) Destinations(cols [][]int64, row int, dst []int) []int {
next:
	for si := range a {
		st := &a[si]
		// Overweight exclusion (the S^(B)_j membership test).
		for _, ec := range st.exclude {
			if ec.over.LookupRow(cols, ec.attrs, row) >= 0 {
				continue next
			}
		}
		bases := st.bases
		if !st.resolved {
			bases = st.ap.blocksOf(st.ap.blockCode.LookupRow(cols, st.ap.xjAttrs, row))
		}
		if len(bases) > 0 {
			dst = st.ap.cube.Append(cols, row, bases, dst)
		}
	}
	return dst
}

// Servers implements mpc.Route: a row's combinations are resolved per row,
// so every row answers -1 and goes through Destinations.
//
//skewlint:noalloc
func (a atomRoute) Servers(_ [][]int64, _, _ int, out []int32) {
	for i := range out {
		out[i] = -1
	}
}

// CompileSpan implements mpc.Route for a run on any single attribute: for
// each bin combination, run the exclusion checks and block lookups over
// exactly that attribute once for the whole run, dropping combinations that
// exclude the run or route it nowhere. The surviving per-row work
// (multi-attribute exclusions, other-attribute lookups, subcube hashing)
// runs through a closure over the reduced steps.
func (a atomRoute) CompileSpan(cols [][]int64, attr int, v int64, route *mpc.SpanRoute) bool {
	run := [1]int64{v}
	steps := make(atomRoute, 0, len(a))
next:
	for _, st := range a {
		all := st.exclude
		st.exclude = nil
		for _, ec := range all {
			if len(ec.attrs) != 1 || ec.attrs[0] != attr {
				st.exclude = append(st.exclude, ec)
			} else if ec.over.Lookup(run[:]) >= 0 {
				continue next // the whole run is overweight here
			}
		}
		if xj := st.ap.xjAttrs; len(xj) == 1 && xj[0] == attr {
			st.bases, st.resolved = st.ap.blocksOf(st.ap.blockCode.Lookup(run[:])), true
		}
		if st.resolved && len(st.bases) == 0 {
			continue // the run maps to no block of this combination
		}
		steps = append(steps, st)
	}
	if len(steps) == 0 {
		return true // uniform empty: every combination excluded the run
	}
	route.PerRow = func(row int, dst []int) []int {
		return steps.Destinations(cols, row, dst)
	}
	return true
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
