package rounds

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/skew"
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
// sides, join-product-estimated on intermediate sides), plans the round as
// §4.1's binary join (skew.Binary), and emits the executor stage plus the
// planner's view of the step output and the round's predicted maximum
// per-server load in bits.
func planStage(si int, st Step, left, right *input, cfg Config, ps *stats.Pass) (exec.Stage, *input, float64) {
	p := cfg.P
	leftKey := keyPositions(st.LeftVars, st.JoinVars)
	rightKey := keyPositions(st.RightVars, st.JoinVars)
	cartesian := len(st.JoinVars) == 0

	var heavy []skew.HeavyKey
	anyCover := false
	var estOut float64
	// Frequency statistics are only collected in skew-aware mode: a plain
	// step is a hash join whose routing needs no statistics at all, so
	// plain lowering stays as cheap as its router.
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
			if hL, hR := estL[c] > thrL, estR[c] > thrR; hL || hR {
				heavy = append(heavy, skew.HeavyKey{Key: keys[c*width : (c+1)*width], FL: estL[c], FR: estR[c], HeavyL: hL, HeavyR: hR})
			}
		}
	}
	switch {
	case cartesian:
		// The one empty key joins everything with everything: §4.1's grid
		// for a key heavy on both sides.
		estOut = left.est * right.est
		heavy = []skew.HeavyKey{{FL: left.est, FR: right.est, HeavyL: true, HeavyR: true}}
	case !anyCover:
		// Plain mode, or no full-cover factor anywhere (bushy custom plans):
		// a crude linear guess — later-round predictions degrade, routing
		// does not.
		estOut = left.est + right.est
	}

	// The round is §4.1's binary join on its own inputs: light keys hash
	// over [0, p), each heavy key gets a block sized from its class's
	// budget, and a heavy key's rows spread over the block by a hash of the
	// whole row.
	family := hashing.NewFamily(cfg.Seed*1315423911 + uint64(si) + 1)
	keySeeds := make([]uint64, len(leftKey))
	for i := range keySeeds {
		keySeeds[i] = family.DimSeed(dimKey + i)
	}
	bp := (&skew.Binary{
		P:        p,
		Left:     skew.BinarySide{Name: st.Left, Key: leftKey, Spread: allColumns(left.arity), Seed: family.DimSeed(dimLeft)},
		Right:    skew.BinarySide{Name: st.Right, Key: rightKey, Spread: allColumns(right.arity), Seed: family.DimSeed(dimRight)},
		KeySeeds: keySeeds,
		Heavy:    heavy,
	}).Plan()
	// The round's predicted max load: the balanced hash load, or a heavy
	// key's heaviest grid cell.
	bL, bR := float64(left.bits), float64(right.bits)
	pred := (left.est*bL + right.est*bR) / float64(p)
	for i, b := range bp.Blocks {
		hk := heavy[i]
		if grid := math.Max(1, hk.FL)/float64(b.P1)*bL + math.Max(1, hk.FR)/float64(b.P2)*bR; grid > pred {
			pred = grid
		}
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
			Virtual:  bp.Virtual,
			Physical: p,
			Router:   bp.Router,
		},
		LocalFragment: localJoin(st, leftKey, rightKey, rightPosOf, outArity, domain),
		OutName:       st.Output,
		OutArity:      outArity,
		OutDomain:     domain,
	}
	// Base inputs keyed on a single column route span-wise when partitioned
	// (BinaryRouter spans exactly that shape). Intermediates are rebuilt
	// every round and never carry an index; a self-joined input is
	// classified as left by the router, so only the left key is hinted.
	if left.rel != nil && len(leftKey) == 1 {
		stage.Plan.PartitionHints = append(stage.Plan.PartitionHints, exec.PartitionHint{Rel: st.Left, Attr: leftKey[0]})
	}
	if right.rel != nil && len(rightKey) == 1 && st.Right != st.Left {
		stage.Plan.PartitionHints = append(stage.Plan.PartitionHints, exec.PartitionHint{Rel: st.Right, Attr: rightKey[0]})
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
		groups := sc.Groups(lf.Size())
		total := 0
		for li := range groups {
			g := idx.LookupRow(lCols, leftKey, li)
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

// Hash-family dimensions used by one join round.
const dimKey, dimLeft, dimRight = 0, 1, 2

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

// allColumns lists the positions of an arity-wide schema.
func allColumns(arity int) []int {
	cols := make([]int, arity)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
