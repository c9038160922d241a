package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/workload"
)

// frozenPlan is what the engine planned and shipped for one bench/ workload
// instance at the commit before statistics moved from boxed-key map tables
// onto the group-by kernel. Planning must reproduce it bit for bit: the
// kernel changes how frequencies are counted, never which values are heavy
// or what they weigh.
type frozenPlan struct {
	workload string
	seed     int64

	strategy  Strategy
	predicted uint64 // math.Float64bits(Plan.PredictedBits)
	lower     uint64 // math.Float64bits(Plan.LowerBoundBits)
	virtual   []int  // the plan's Virtual; one entry per stage for a pipeline
	loads     uint64 // loadDigest of a run with the local join skipped
	combos    uint64 // comboDigest of the §4.2 bin-combination list
}

var frozenPlans = []frozenPlan{
	{"hit_small", 1, HyperCube, 0x40a9640000000002, 0x40a9640000000000, []int{16}, 0x5aaf953a12df6069, 0x5820e9fb6b759072},
	{"hit_small", 5, HyperCube, 0x40a9640000000002, 0x40a9640000000000, []int{16}, 0xe2da4c0a6e3b6e38, 0x5820e9fb6b759072},
	{"hit_multiround", 1, MultiRound, 0x40fd8872c0000000, 0x40dadaffffffffff, []int{64, 64}, 0xb55568872901f832, 0xaf3358535d733a92},
	{"hit_multiround", 5, MultiRound, 0x40fd9a3cc0000000, 0x40dadaffffffffff, []int{64, 64}, 0x2d54eab777d1132e, 0xaf3358535d733a92},
	{"hit_zipf", 1, SkewJoin, 0x40bb5fe78b0ff604, 0x40bbadefd09506e6, []int{126}, 0xbfa89c6d185fe59f, 0x26bc63819355e928},
	{"hit_zipf", 5, SkewJoin, 0x40bb5fe78b0ff604, 0x40bbadefd09506e6, []int{126}, 0xc84aebb13596fde2, 0x26bc63819355e928},
	{"cold_plan", 1, BinCombination, 0x40badb0000000001, 0x40badb0000000000, []int{64}, 0xd609b1f2e127c3b4, 0xcbe36c84c683ee0b},
	{"cold_plan", 5, BinCombination, 0x40badb0000000001, 0x40badb0000000000, []int{64}, 0x382646118a47ac9d, 0xcbe36c84c683ee0b},
	{"delta_advance", 1, HyperCube, 0x40a9640000000002, 0x40a9640000000000, []int{16}, 0x5aaf953a12df6069, 0x5820e9fb6b759072},
	{"delta_advance", 5, HyperCube, 0x40a9640000000002, 0x40a9640000000000, []int{16}, 0xe2da4c0a6e3b6e38, 0x5820e9fb6b759072},
	{"planted_triangle", 1, BinCombination, 0x40c740c102881dd3, 0x40c740c102881dc8, []int{123}, 0x5e1e6570cd4c94b4, 0xf44d02e21b85854f},
	{"planted_triangle", 5, BinCombination, 0x40c740c102881dd3, 0x40c740c102881dc8, []int{123}, 0x6cd7529b8b68a677, 0xf44d02e21b85854f},
	// Re-pinned for §4.1's per-class budgets in multi-round steps: step 1
	// has one key heavy on the left only (fL = 128, fR = 103, threshold
	// 125), which gets a 32×1 block of its own.
	{"zipf_multiround", 1, MultiRound, 0x4151a7fc50000000, 0x40cf010158b57d10, []int{97, 32}, 0x447fc87dacfad130, 0x11f30780c73f658a},
	{"zipf_multiround", 5, MultiRound, 0x4151498908000000, 0x40cf010158b57d10, []int{65, 32}, 0xee281517fafe9de4, 0x11f30780c73f658a},
}

// benchInstance rebuilds bench/workloads.go's query, database, p and forced
// strategy for one workload name (bench/ is package main and frozen, so the
// generators are mirrored here; delta_advance plans hit_small's database).
func benchInstance(name string, seed int64) (*query.Query, *data.Database, int, *Strategy) {
	db := data.NewDatabase()
	three := []string{"S1", "S2", "S3"}
	switch name {
	case "hit_small", "delta_advance":
		db.Put(workload.Matching("S1", 2, 2000, 1<<13, seed))
		db.Put(workload.Matching("S2", 2, 2000, 1<<13, seed+7919))
		return query.Join2(), db, 16, nil
	case "hit_multiround":
		for i, n := range three {
			db.Put(workload.Uniform(n, 2, 20000, 2048, seed+int64(i)*7919))
		}
		mr := MultiRound
		return query.Triangle(), db, 64, &mr
	case "hit_zipf":
		degrees := benchZipfDegrees(5000, 500, 1.2, seed)
		db.Put(workload.DegreeSequence("S1", 1<<20, 1, degrees, seed))
		db.Put(workload.DegreeSequence("S2", 1<<20, 1, degrees, seed+7919))
		return query.Join2(), db, 64, nil
	case "cold_plan":
		for i, n := range three {
			db.Put(workload.SkewedGraph(n, 5000, 2000, 1.2, seed+int64(i)*7919))
		}
		return query.Triangle(), db, 64, nil
	// Two instances beyond bench/'s, because none of the five plans a heavy
	// step key or a second bin combination.
	case "planted_triangle":
		hv := []workload.HeavySpec{{Value: 3, Count: 1500}, {Value: 8, Count: 300}}
		db.Put(workload.PlantedHeavy("S1", 3000, 1<<20, 0, hv, seed))
		db.Put(workload.PlantedHeavy("S2", 3000, 1<<20, 1, hv, seed+1))
		db.Put(workload.Zipf("S3", 3000, 1<<20, 0, 1.3, 400, seed+2))
		return query.Triangle(), db, 32, nil
	case "zipf_multiround":
		db.Put(workload.Zipf("S1", 4000, 1<<20, 1, 1.4, 300, seed))
		db.Put(workload.Zipf("S2", 4000, 1<<20, 0, 1.4, 300, seed+1))
		db.Put(workload.Zipf("S3", 4000, 1<<20, 1, 1.2, 300, seed+2))
		mr := MultiRound
		return query.Triangle(), db, 32, &mr
	}
	panic("unknown workload " + name)
}

// benchZipfDegrees mirrors zipfDegrees in bench/workloads.go: the exact
// Zipf(s) degree sequence with largest-remainder rounding.
func benchZipfDegrees(m, distinct int, s float64, seed int64) map[int64]int {
	weights := make([]float64, distinct)
	var total float64
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -s)
		total += weights[k]
	}
	counts := make([]int, distinct)
	type rem struct {
		k    int
		frac float64
	}
	rems := make([]rem, distinct)
	assigned := 0
	for k, w := range weights {
		exact := w / total * float64(m)
		counts[k] = int(exact)
		assigned += counts[k]
		rems[k] = rem{k, exact - float64(counts[k])}
	}
	for i := 1; i < len(rems); i++ {
		for j := i; j > 0 && rems[j].frac > rems[j-1].frac; j-- {
			rems[j], rems[j-1] = rems[j-1], rems[j]
		}
	}
	for i := 0; assigned < m; i++ {
		counts[rems[i].k]++
		assigned++
	}
	values := rand.New(rand.NewSource(seed)).Perm(distinct)
	degrees := make(map[int64]int, distinct)
	for k, c := range counts {
		if c > 0 {
			degrees[int64(values[k])] = c
		}
	}
	return degrees
}

// loadDigest runs the plan with the (last) local join skipped and folds the
// realized loads: every virtual server's received bits for a one-round
// plan, every round's max/total bits and intermediate size for a pipeline.
func loadDigest(t *testing.T, cp *cachedPlan, db *data.Database) uint64 {
	t.Helper()
	h := fnv.New64a()
	if cp.plan.Strategy != MultiRound {
		er, err := exec.Execute(cp.run, db, exec.Config{SkipCompute: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, bits := range er.Rounds[0].PerServerBits {
			fmt.Fprintf(h, "%d,", bits)
		}
		return h.Sum64()
	}
	pr, err := exec.Execute(cp.run, db, exec.Config{SkipCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rl := range pr.Rounds {
		fmt.Fprintf(h, "%d/%d/%d,", rl.MaxBits, rl.TotalBits, rl.Intermediate)
	}
	return h.Sum64()
}

// comboDigest folds the §4.2 bin-combination list (variable set, bins,
// |C'(B)|, λ and α bits) in its reported order.
func comboDigest(combos []skew.Combo) uint64 {
	h := fnv.New64a()
	for _, in := range combos {
		fmt.Fprintf(h, "%v%v%d:%x:%x;", in.Vars, in.Bins, in.CSize, math.Float64bits(in.Lambda), math.Float64bits(in.Alpha))
	}
	return h.Sum64()
}

func TestPlansBitIdenticalToFrozen(t *testing.T) {
	for _, want := range frozenPlans {
		q, db, p, forced := benchInstance(want.workload, want.seed)
		e := newEngine(t, Config{P: p, Seed: 1})
		cp := buildPlan(q, db, e.settings(ExecOptions{Strategy: forced}), nil)
		got := frozenPlan{
			workload:  want.workload,
			seed:      want.seed,
			strategy:  cp.plan.Strategy,
			predicted: math.Float64bits(cp.plan.PredictedBits),
			lower:     math.Float64bits(cp.plan.LowerBoundBits),
			loads:     loadDigest(t, cp, db),
			combos:    comboDigest(skew.PlanGeneral(q, db, skew.GeneralConfig{P: p, Seed: 1}).Combos),
		}
		for _, st := range cp.run.Stages {
			got.virtual = append(got.virtual, st.Plan.Virtual)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s seed %d:\n got %#v\nwant %#v", want.workload, want.seed, got, want)
		}
	}
}
