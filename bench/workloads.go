package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
	"repro/internal/workload"
)

// engineSeed pins every hash family of the session and of the traced
// pass's twin engine and planners: -seed varies the inputs only, so load
// ratios are a pure function of (input seed, code).
const engineSeed = 1

// spec is one named workload: a query, an instance generated from the
// input seed, and the serving call the closed loop repeats on it.
type spec struct {
	name string
	// why is recorded in BENCHMARK.json and the README: the layers this
	// workload stresses and the ones it bypasses.
	why string
	p   int
	// query returns the workload's query; build generates its database
	// from the input seed through internal/workload only.
	query func() *repro.Query
	build func(seed int64) *repro.Database
	// strategy, when non-nil, is forced on every Exec; cold bypasses the
	// plan cache so every op plans.
	strategy *repro.Strategy
	cold     bool
	// delta makes the op Database.Apply(1000-op delta) + StandingQuery.Advance
	// instead of Session.Exec.
	delta bool
	// warmups is the number of untimed ops set-up runs after the first
	// (cold) op: enough to cache the plan, pool the clusters, build the
	// partitions and prime the delta window, few enough that set-up repeats
	// three times inside a run.
	warmups int
}

var multiRound = repro.StrategyMultiRound

// specs lists the workloads in their interleaving order (A B C D E).
var specs = []spec{
	{
		name:    "hit_small",
		why:     "cache-hit Exec, join2 matchings m=2000 p=16 (HyperCube): only per-call fixed cost shows; bypasses planners, skew routers, pipeline, standing",
		p:       16,
		query:   repro.Join2Query,
		build:   buildMatchings,
		warmups: 20,
	},
	{
		name:     "hit_multiround",
		why:      "cache-hit forced multi-round triangle, uniform m=20000 p=64: the only path through RunPipeline, ShuffleResident and columnar fragments",
		p:        64,
		query:    repro.TriangleQuery,
		strategy: &multiRound,
		build: func(seed int64) *repro.Database {
			db := repro.NewDatabase()
			for i, name := range []string{"S1", "S2", "S3"} {
				db.Put(workload.Uniform(name, 2, 20000, 2048, seed+int64(i)*7919))
			}
			return db
		},
		warmups: 20,
	},
	{
		name:    "hit_zipf",
		why:     "cache-hit skew-join, zipf(1.2) degrees over 500 values m=5000 p=64, ~2M answers: output materialization dominates, the round is ~1% (routing changes must not move it)",
		p:       64,
		query:   repro.Join2Query,
		build:   buildZipf,
		warmups: 5,
	},
	{
		name:  "cold_plan",
		why:   "uncached Exec, triangle on three power-law graphs p=64 (bin-combination + Dedup): planning (BestLower, CollectDB, PlanGeneral) is most of the op; every hit workload bypasses it",
		p:     64,
		query: repro.TriangleQuery,
		cold:  true,
		build: func(seed int64) *repro.Database {
			db := repro.NewDatabase()
			for i, name := range []string{"S1", "S2", "S3"} {
				db.Put(workload.SkewedGraph(name, 5000, 2000, 1.2, seed+int64(i)*7919))
			}
			return db
		},
		warmups: 5,
	},
	{
		name:    "delta_advance",
		why:     "Apply(1000-op sliding-window delta)+Advance on the hit_small database: per-tuple routing, resident indexes and epoch publishing; writes beside reads",
		p:       16,
		query:   repro.Join2Query,
		delta:   true,
		build:   buildMatchings,
		warmups: 20,
	},
}

func specByName(name string) (spec, bool) {
	for _, w := range specs {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// matchingDomain is the join2 serving instance's value domain; deltaWindow
// draws its fresh join values from the part the matchings leave unused.
const (
	matchingM      = 2000
	matchingDomain = 1 << 13
)

// buildMatchings is the canonical serving instance of the legacy BENCH
// files: join2 over two matchings.
func buildMatchings(seed int64) *repro.Database {
	db := repro.NewDatabase()
	db.Put(workload.Matching("S1", 2, matchingM, matchingDomain, seed))
	db.Put(workload.Matching("S2", 2, matchingM, matchingDomain, seed+7919))
	return db
}

// zipfDegrees returns the exact degree sequence of a Zipf(s) column: rank k
// of distinct holds a share proportional to (1+k)^-s of the m tuples
// (largest-remainder rounding), and the seed decides which value carries
// which rank. Sampling the degrees instead (workload.Zipf) moves the join
// size — and with it every timing on hit_zipf — by several percent from
// seed to seed, which would drown the bound the metric is held to.
func zipfDegrees(m, distinct int, s float64, seed int64) map[int64]int {
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
	// Hand the rounding remainder to the largest fractions, lowest rank
	// first on ties (insertion sort: distinct is a few hundred).
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

// buildZipf is join2 with both relations Zipf(1.2)-skewed on the join
// column over the same 500 values.
func buildZipf(seed int64) *repro.Database {
	const (
		m        = 5000
		distinct = 500
		domain   = 1 << 20
	)
	degrees := zipfDegrees(m, distinct, 1.2, seed)
	db := repro.NewDatabase()
	db.Put(workload.DegreeSequence("S1", domain, 1, degrees, seed))
	db.Put(workload.DegreeSequence("S2", domain, 1, degrees, seed+7919))
	return db
}

// deltaWindow is the sliding window delta_advance slides over the
// matchings: slot j holds deltaBatch matched S1(a,z),S2(b,z) pairs on join
// values no other tuple uses, so each pair derives exactly one answer and
// no value ever turns heavy. The database cycles through the states
// base+slot 0, base+slot 1, ...: one step deletes the 2*deltaBatch tuples of
// the previous slot and inserts the 2*deltaBatch of the next — a 1000-op
// delta.
type deltaWindow struct {
	slots [][3][]int64 // per slot: a, b, z columns
}

const (
	deltaBatch = 250
	deltaSlots = 16
)

// newDeltaWindow derives the window from the seed and the database's
// unused join values.
func newDeltaWindow(db *repro.Database, seed int64) (*deltaWindow, error) {
	used := make(map[int64]bool, 2*matchingM)
	for _, name := range []string{"S1", "S2"} {
		for _, z := range db.Get(name).Column(1) {
			used[z] = true
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var free []int64
	for _, v := range rng.Perm(matchingDomain) {
		if !used[int64(v)] {
			free = append(free, int64(v))
		}
	}
	if len(free) < deltaSlots*deltaBatch {
		return nil, fmt.Errorf("delta window: %d unused join values, need %d", len(free), deltaSlots*deltaBatch)
	}
	w := &deltaWindow{slots: make([][3][]int64, deltaSlots)}
	for j := range w.slots {
		for c := 0; c < 2; c++ {
			col := make([]int64, deltaBatch)
			for i := range col {
				col[i] = rng.Int63n(matchingDomain)
			}
			w.slots[j][c] = col
		}
		w.slots[j][2] = free[j*deltaBatch : (j+1)*deltaBatch]
	}
	return w, nil
}

// step returns the delta that deletes slot from (when ≥ 0) and then
// inserts slot to. Deletes come first so from == to is a valid no-op.
func (w *deltaWindow) step(from, to int) *repro.Delta {
	d := repro.NewDelta()
	if from >= 0 {
		s := w.slots[from]
		for i := range s[2] {
			d.Delete("S1", s[0][i], s[2][i]).Delete("S2", s[1][i], s[2][i])
		}
	}
	s := w.slots[to]
	for i := range s[2] {
		d.Insert("S1", s[0][i], s[2][i]).Insert("S2", s[1][i], s[2][i])
	}
	return d
}
