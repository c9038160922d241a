package rounds

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/stats"
)

// input is the planner's view of one stage input: a base relation (rel
// non-nil) or a prior step's output, with the base atoms it was joined
// from and a size estimate. All statistics are frozen at plan time — the
// lowered pipeline is a pure function of (plan, database content, config),
// which is what makes it cacheable.
type input struct {
	vars  []int
	rel   *data.Relation // nil for intermediates
	atoms []query.Atom   // participating base atoms (the join subtree)
	// rels holds each atom's base relation, so later steps can compute
	// restricted frequencies of an intermediate's constituents without
	// materializing it.
	rels   []*data.Relation
	est    float64 // estimated tuple count (exact for base relations)
	arity  int
	domain int64
	bits   int64 // bits per tuple
}

// Lower turns a logical plan into a PipelinePlan over db's statistics: one
// executor stage per step, each with its own virtual-server layout, router
// (heavy-hitter grids per join key in skew-aware mode), and local join.
// Heavy-hitter frequencies of base relations are exact, read through the
// caller's statistics pass (which may already hold them); an intermediate
// input's key frequency is estimated as the product of its subtree atoms'
// restricted frequencies — the join-product skew model — so lowering never
// materializes an intermediate.
func Lower(plan Plan, db *data.Database, cfg Config, ps *stats.Pass) *PipelinePlan {
	if cfg.P < 2 {
		panic("rounds: need P >= 2")
	}
	pp := &PipelinePlan{Logical: plan}
	if len(plan.Steps) == 0 {
		db.MustGet(plan.Query.Atoms[0].Name) // surface a missing relation at plan time
		return pp
	}
	inputs := make(map[string]*input)
	for _, a := range plan.Query.Atoms {
		r := db.MustGet(a.Name)
		inputs[a.Name] = &input{
			vars: a.Vars, rel: r, atoms: []query.Atom{a}, rels: []*data.Relation{r},
			est: float64(r.Size()), arity: r.Arity, domain: r.Domain,
			bits: r.BitsPerTuple(),
		}
	}
	pipe := &exec.Pipeline{Strategy: "multi-round", Physical: cfg.P}
	for si, st := range plan.Steps {
		left, right := inputs[st.Left], inputs[st.Right]
		if left == nil || right == nil {
			panic(fmt.Sprintf("rounds: step %d references unknown input %q/%q", si, st.Left, st.Right))
		}
		stage, out, predBits := planStage(si, st, left, right, cfg, ps)
		pipe.Stages = append(pipe.Stages, stage)
		pipe.PredictedSumMaxBits += predBits
		inputs[st.Output] = out
	}
	pp.Pipe = pipe
	pp.PredictedSumMaxBits = pipe.PredictedSumMaxBits
	return pp
}

// factor is one term of a side's join-key frequency estimate: the
// frequency table of a participating base atom over its share of the join
// variables (in join-variable order), plus where those variables sit inside
// the full join key.
type factor struct {
	freq *stats.Freq
	kIdx []int // positions within JoinVars of the factor's variables
	full bool  // the factor covers every join variable
}

// sideFactors builds the frequency factors of one input for the given join
// variables. For a base relation this is a single exact full-cover factor;
// for an intermediate, one factor per subtree atom sharing join variables.
func sideFactors(in *input, joinVars []int, ps *stats.Pass) []factor {
	if len(joinVars) == 0 {
		return nil
	}
	var fs []factor
	for ai, a := range in.atoms {
		var pos, kIdx []int
		for ki, v := range joinVars {
			for p, av := range a.Vars {
				if av == v {
					pos = append(pos, p)
					kIdx = append(kIdx, ki)
				}
			}
		}
		if len(pos) == 0 {
			continue
		}
		fs = append(fs, factor{
			freq: ps.Frequencies(in.rels[ai], pos),
			kIdx: kIdx,
			full: len(kIdx) == len(joinVars),
		})
	}
	return fs
}

// estFreq estimates the frequency of join key k on a side as the product
// of its factors' restricted counts (zero if any factor misses the key).
// Exact when the side is a base relation; the join-product upper-bound
// model otherwise.
func estFreq(fs []factor, k []int64, scratch []int64) float64 {
	prod := 1.0
	for _, f := range fs {
		for i, idx := range f.kIdx {
			scratch[i] = k[idx]
		}
		c := f.freq.Count(scratch[:len(f.kIdx)])
		if c == 0 {
			return 0
		}
		prod *= float64(c)
	}
	return prod
}

// planStage lowers one step: it detects heavy join keys (exact on base
// sides, join-product-estimated on intermediate sides), allocates their
// §4.1 cartesian grids over virtual servers, and emits the executor stage
// plus the planner's view of the step output and the round's predicted
// maximum per-server load in bits.
func planStage(si int, st Step, left, right *input, cfg Config, ps *stats.Pass) (exec.Stage, *input, float64) {
	p := cfg.P
	leftKey := keyPositions(st.LeftVars, st.JoinVars)
	rightKey := keyPositions(st.RightVars, st.JoinVars)
	family := hashing.NewFamily(cfg.Seed*1315423911 + uint64(si) + 1)
	cartesian := len(st.JoinVars) == 0

	type heavyKey struct {
		k      []int64
		fL, fR float64
	}
	var heavyKeys []heavyKey
	anyCover := false
	var estOut float64
	// Frequency statistics are only collected in skew-aware mode: a plain
	// step is a hash join whose routing needs no statistics at all, so
	// plain lowering stays as cheap as the step router itself.
	if cfg.SkewAware && !cartesian {
		lf := sideFactors(left, st.JoinVars, ps)
		rf := sideFactors(right, st.JoinVars, ps)
		width := len(st.JoinVars)
		scratch := make([]int64, width)
		// Candidate heavy keys come from full-cover factors (a base side
		// always covers the whole key; an intermediate contributes a
		// subtree atom only if it happens to contain every join variable).
		// Keys outside every cover join nothing on that side, but may still
		// be missed hot spots on the other — the same load-only blind spot
		// sampling-based detection accepts. The candidates' keys sit side
		// by side in one flat arena, their estimates in two more.
		var covers []*stats.Freq
		var keys []int64
		var estL, estR []float64
		var sumL, sumR float64
		for _, fs := range [][]factor{lf, rf} {
			for _, f := range fs {
				if !f.full {
					continue
				}
				earlier := covers
				covers = append(covers, f.freq)
				f.freq.Each(func(k []int64, _ int64) {
					for _, c := range earlier {
						if c.Count(k) > 0 {
							return // already a candidate
						}
					}
					eL := estFreq(lf, k, scratch)
					eR := estFreq(rf, k, scratch)
					estOut += eL * eR
					sumL += eL
					sumR += eR
					keys = append(keys, k...)
					estL, estR = append(estL, eL), append(estR, eR)
				})
			}
		}
		anyCover = len(covers) > 0
		// Thresholds are normalized to the estimates' own mass (Σ over
		// candidate keys — exactly the side's size for a base relation),
		// never to the chained size estimate, which can collapse to ~0 for
		// provably tiny intermediates and would then declare every key
		// heavy. The comparison is strict with a one-tuple floor: an
		// estimated frequency of one is never a heavy hitter.
		thrL := math.Max(1, sumL/float64(p))
		thrR := math.Max(1, sumR/float64(p))
		for c := range estL {
			if estL[c] > thrL || estR[c] > thrR {
				heavyKeys = append(heavyKeys, heavyKey{keys[c*width : (c+1)*width], estL[c], estR[c]})
			}
		}
		// Deterministic virtual-server allocation: only the (few) heavy
		// keys need a canonical order, not the full candidate set.
		sort.Slice(heavyKeys, func(i, j int) bool { return slices.Compare(heavyKeys[i].k, heavyKeys[j].k) < 0 })
	}
	switch {
	case cartesian:
		estOut = left.est * right.est
	case !anyCover:
		// Plain mode, or no full-cover factor anywhere (bushy custom plans):
		// a crude linear guess — later-round predictions degrade, routing
		// does not.
		estOut = left.est + right.est
	}

	// Virtual-server allocation: [0, p) is the light hash range; each heavy
	// key gets a p1×p2 cartesian grid sized by its share of the estimated
	// join product, exactly as §4.1 sizes hitter blocks.
	virtual := p
	var heavy []heavyPlan // by heavyKeys index, the code its dictionary gives the key
	bL, bR := float64(left.bits), float64(right.bits)
	pred := (left.est*bL + right.est*bR) / float64(p)
	if cartesian {
		g1 := int(math.Max(1, math.Sqrt(float64(p))))
		g2 := p / g1
		if g2 < 1 {
			g2 = 1
		}
		pred = left.est*bL/float64(g1) + right.est*bR/float64(g2)
	}
	if cfg.SkewAware && len(heavyKeys) > 0 {
		var sumK float64
		for _, hk := range heavyKeys {
			sumK += math.Max(1, hk.fL) * math.Max(1, hk.fR)
		}
		for _, hk := range heavyKeys {
			kw := math.Max(1, hk.fL) * math.Max(1, hk.fR)
			ph := int(math.Ceil(float64(p) * kw / sumK))
			r1 := math.Max(1, hk.fL)
			r2 := math.Max(1, hk.fR)
			p1 := int(math.Round(math.Sqrt(float64(ph) * r1 / r2)))
			if p1 < 1 {
				p1 = 1
			}
			if p1 > ph {
				p1 = ph
			}
			p2 := ph / p1
			if p2 < 1 {
				p2 = 1
			}
			heavy = append(heavy, heavyPlan{base: virtual, p1: p1, p2: p2})
			virtual += p1 * p2
			if grid := r1/float64(p1)*bL + r2/float64(p2)*bR; grid > pred {
				pred = grid
			}
		}
	} else {
		for _, hk := range heavyKeys {
			// Plain hash join: the whole key lands on one server.
			if hot := hk.fL*bL + hk.fR*bR; hot > pred {
				pred = hot
			}
		}
	}

	router := &stepRouter{
		leftName: st.Left, rightName: st.Right,
		leftKey: leftKey, rightKey: rightKey,
		cartesian: cartesian,
		heavy:     heavy, p: p, family: family,
		keySeeds: make([]uint64, max(len(leftKey), len(rightKey))),
	}
	for i := range router.keySeeds {
		router.keySeeds[i] = family.DimSeed(dimKey + i)
	}
	if len(heavy) > 0 {
		var keys []int64
		for _, hk := range heavyKeys {
			keys = append(keys, hk.k...)
		}
		router.heavyCode = stats.Dictionary(len(st.JoinVars), keys)
	}

	outArity := len(st.OutVars)
	domain := left.domain
	if right.domain > domain {
		domain = right.domain
	}
	// Columns of the right input contributing new variables, in OutVars
	// order (the left contributes its full schema as the output prefix).
	var rightPosOf []int
	for _, v := range st.OutVars {
		if !containsInt(st.LeftVars, v) {
			for pos, rv := range st.RightVars {
				if rv == v {
					rightPosOf = append(rightPosOf, pos)
				}
			}
		}
	}

	stage := exec.Stage{
		Plan: &exec.PhysicalPlan{
			Strategy: "multi-round",
			Virtual:  virtual,
			Physical: p,
			Router:   router,
		},
		LocalFragment: localJoin(st, leftKey, rightKey, rightPosOf, outArity, domain),
		OutName:       st.Output,
		OutArity:      outArity,
		OutDomain:     domain,
	}
	// Base inputs keyed on a single column route span-wise when partitioned
	// (stepRouter implements mpc.SpanRouter for exactly that shape).
	// Intermediates are rebuilt every round and never carry an index; a
	// self-joined input is classified as left by the router, so only the
	// left key is hinted.
	if !cartesian {
		if left.rel != nil && len(leftKey) == 1 {
			stage.Plan.PartitionHints = append(stage.Plan.PartitionHints, exec.PartitionHint{Rel: st.Left, Attr: leftKey[0]})
		}
		if right.rel != nil && len(rightKey) == 1 && st.Right != st.Left {
			stage.Plan.PartitionHints = append(stage.Plan.PartitionHints, exec.PartitionHint{Rel: st.Right, Attr: rightKey[0]})
		}
	}
	for _, in := range []struct {
		name string
		in   *input
	}{{st.Left, left}, {st.Right, right}} {
		if in.in.rel != nil {
			stage.Base = append(stage.Base, in.name)
		} else {
			stage.Resident = append(stage.Resident, in.name)
		}
	}

	out := &input{
		vars:  st.OutVars,
		atoms: append(append([]query.Atom(nil), left.atoms...), right.atoms...),
		est:   estOut,
		arity: outArity, domain: domain,
		rels: append(append([]*data.Relation(nil), left.rels...), right.rels...),
		bits: int64(outArity) * int64(data.BitsPerValue(domain)),
	}
	return stage, out, pred
}

// localJoin builds a stage's local computation: group the right fragment by
// its key columns, count each left row's matches, then fill output columns
// allocated once at their final size, which the output fragment then adopts
// as its storage: a stage's output is materialized once. The index and the
// match groups are join's pooled scratch. The values come from the two
// input fragments, whose domains the output domain covers, so they are
// trusted as AdoptColumns requires.
func localJoin(st Step, leftKey, rightKey, rightPosOf []int, outArity int, domain int64) func(s *mpc.Server) *data.Relation {
	leftName, rightName, outName := st.Left, st.Right, st.Output
	return func(s *mpc.Server) *data.Relation {
		lf, rf := s.Fragment(leftName), s.Fragment(rightName)
		if lf == nil || rf == nil || lf.Size() == 0 || rf.Size() == 0 {
			return nil
		}
		sc := join.GetScratch()
		defer join.PutScratch(sc)
		idx := &sc.Index
		idx.Build(rf, rightKey)
		lCols, rCols := lf.Columns(), rf.Columns()
		probe := make([]int64, len(leftKey))
		groups := sc.Groups(lf.Size())
		total := 0
		for li := range groups {
			for a, pos := range leftKey {
				probe[a] = lCols[pos][li]
			}
			g := idx.Lookup(probe)
			groups[li] = int32(g)
			total += idx.Count(g)
		}
		if total == 0 {
			return nil
		}
		flat := make([]int64, outArity*total)
		cols := make([][]int64, outArity)
		for a := range cols {
			cols[a] = flat[a*total : (a+1)*total]
		}
		lArity := lf.Arity
		o := 0
		for li, g := range groups {
			for _, ri := range idx.Rows(int(g)) {
				for a := 0; a < lArity; a++ {
					cols[a][o] = lCols[a][li]
				}
				for a, pos := range rightPosOf {
					cols[lArity+a][o] = rCols[pos][ri]
				}
				o++
			}
		}
		out := data.NewRelation(outName, outArity, domain)
		out.AdoptColumns(cols, total)
		return out
	}
}

// heavyPlan is a per-heavy-key cartesian grid of virtual servers.
type heavyPlan struct {
	base, p1, p2 int
}

// Hash-family dimensions used by one join round.
const dimKey, dimLeft, dimRight = 0, 1, 2

// stepRouter routes one binary-join round: heavy keys to their cartesian
// grids, cartesian steps over a p-server grid, everything else by hash
// join on the key columns. Inputs are identified by relation name — base
// relations arriving from the input servers and resident intermediates
// shuffled server-to-server route identically. Destinations reads key
// columns in place; its projection scratch makes it per-sender
// (mpc.PerSenderRouter).
type stepRouter struct {
	leftName, rightName string
	leftKey, rightKey   []int
	cartesian           bool
	// heavyCode turns a heavy join key into its index in heavy; nil when no
	// key is heavy, and then no key is ever probed.
	heavyCode *data.GroupIndex
	heavy     []heavyPlan
	p         int
	family    *hashing.Family
	keySeeds  []uint64   // family.DimSeed(dimKey+i) for key position i
	proj      data.Tuple // key-projection scratch
}

// ForSender implements mpc.PerSenderRouter.
func (r *stepRouter) ForSender() mpc.Router {
	c := *r
	c.proj = nil
	return &c
}

func (r *stepRouter) keyScratch(n int) data.Tuple {
	want := len(r.leftKey)
	if len(r.rightKey) > want {
		want = len(r.rightKey)
	}
	if r.proj == nil {
		r.proj = make(data.Tuple, want)
	}
	return r.proj[:n]
}

// heavyPlanOf returns the grid of a heavy join key, nil for a light one.
//
//skewlint:noalloc
func (r *stepRouter) heavyPlanOf(key []int64) *heavyPlan {
	if r.heavyCode == nil {
		return nil
	}
	if c := r.heavyCode.Lookup(key); c >= 0 {
		return &r.heavy[c]
	}
	return nil
}

// Destinations implements mpc.Router, reading the key columns (and, on the
// grid paths, all columns for the row hash) in place. Relations that are
// not this step's inputs are not routed.
//
//skewlint:noalloc
func (r *stepRouter) Destinations(rel *data.Relation, row int, dst []int) []int {
	isLeft := rel.Name == r.leftName
	if !isLeft && rel.Name != r.rightName {
		return dst
	}
	cols := rel.Columns()
	kp := r.rightKey
	if isLeft {
		kp = r.leftKey
	}
	key := r.keyScratch(len(kp))
	for i, pos := range kp {
		key[i] = cols[pos][row]
	}
	if hp := r.heavyPlanOf(key); hp != nil {
		return r.gridRoute(isLeft, hp.base, hp.p1, hp.p2, rowHash(cols, row), dst)
	}
	if r.cartesian {
		g1, g2 := r.cartesianGrid()
		return r.gridRoute(isLeft, 0, g1, g2, rowHash(cols, row), dst)
	}
	return append(dst, r.keyHash(key))
}

// SpansAttr implements mpc.SpanRouter: a single-column join key of either
// input (the run's value is the whole key, so one dictionary lookup decides
// the routing of the entire run).
func (r *stepRouter) SpansAttr(rel *data.Relation, attr int) bool {
	if r.cartesian {
		return false
	}
	if rel.Name == r.leftName {
		return len(r.leftKey) == 1 && attr == r.leftKey[0]
	}
	if rel.Name == r.rightName {
		return len(r.rightKey) == 1 && attr == r.rightKey[0]
	}
	return false
}

// CompileSpan implements mpc.SpanRouter. Light runs compile to their single
// hash-join server; heavy runs keep the per-row grid hash but with the
// heavy plan resolved once.
func (r *stepRouter) CompileSpan(rel *data.Relation, attr int, v int64, route *mpc.SpanRoute) bool {
	isLeft := rel.Name == r.leftName
	key := r.keyScratch(1)
	key[0] = v
	if hp := r.heavyPlanOf(key); hp != nil {
		cols := rel.Columns()
		base, p1, p2 := hp.base, hp.p1, hp.p2
		fam := r.family
		if isLeft {
			route.PerRow = func(row int, dst []int) []int {
				gr := fam.Hash(dimLeft, rowHash(cols, row), p1)
				for c := 0; c < p2; c++ {
					dst = append(dst, base+gr*p2+c)
				}
				return dst
			}
		} else {
			route.PerRow = func(row int, dst []int) []int {
				gc := fam.Hash(dimRight, rowHash(cols, row), p2)
				for rr := 0; rr < p1; rr++ {
					dst = append(dst, base+rr*p2+gc)
				}
				return dst
			}
		}
		return true
	}
	route.Dests = append(route.Dests, r.keyHash(key))
	return true
}

// cartesianGrid splits p into a g1 × g2 grid for key-less steps.
func (r *stepRouter) cartesianGrid() (int, int) {
	g1 := int(math.Max(1, math.Sqrt(float64(r.p))))
	return g1, r.p / g1
}

// gridRoute places a left row in one grid row (replicated across columns)
// and a right row in one grid column (replicated across rows).
//
//skewlint:noalloc
func (r *stepRouter) gridRoute(isLeft bool, base, p1, p2 int, rh int64, dst []int) []int {
	if isLeft {
		row := r.family.Hash(dimLeft, rh, p1)
		for c := 0; c < p2; c++ {
			dst = append(dst, base+row*p2+c)
		}
	} else {
		col := r.family.Hash(dimRight, rh, p2)
		for rr := 0; rr < p1; rr++ {
			dst = append(dst, base+rr*p2+col)
		}
	}
	return dst
}

// keyHash maps a join key to one of the p light servers.
func (r *stepRouter) keyHash(key data.Tuple) int {
	h := 0
	for i, v := range key {
		h = h*31 + hashing.HashSeeded(r.keySeeds[i], v, 1<<30)
	}
	if h < 0 {
		h = -h
	}
	return h % r.p
}

// keyPositions maps join variables to their column positions in a schema.
func keyPositions(schema, joinVars []int) []int {
	var pos []int
	for _, jv := range joinVars {
		for i, v := range schema {
			if v == jv {
				pos = append(pos, i)
			}
		}
	}
	return pos
}

// rowHash folds a whole row into one value for the non-key dimension of a
// cartesian grid.
func rowHash(cols [][]int64, row int) int64 {
	h := int64(1469598103934665603)
	for _, col := range cols {
		h = h ^ col[row]
		h *= 1099511628211
	}
	return h
}
