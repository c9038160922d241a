package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestBuildPlanGroupsEachProjectionOnce counts groupings: statistics, the
// lower bounds and the bin-combination planner of one triangle plan ask for
// 27 between them and, through one pass, build the nine distinct ones. A
// relation of the database outside the query is not grouped at all.
func TestBuildPlanGroupsEachProjectionOnce(t *testing.T) {
	q, db, p, _ := benchInstance("cold_plan", 1)
	db.Put(workload.Uniform("T", 3, 2000, 64, 5))
	e := newEngine(t, Config{P: p, Seed: 1})
	ps := new(stats.Pass)
	cp, _ := buildPlan(q, db, e.settings(ExecOptions{}), ps)
	if cp.plan.Strategy != BinCombination {
		t.Fatalf("strategy = %v, want bin-combination", cp.plan.Strategy)
	}
	if got := ps.Groupings(); got != 9 {
		t.Errorf("one buildPlan of the triangle built %d groupings, want 9 (3 relations × 3 attribute subsets)", got)
	}
}

// denseRelation is a binary relation of 60000 distinct pairs over few
// distinct values (300 and 200), plus 3000 rows that make value 7 of
// column heavyCol a heavy hitter: a grouping of it weighs over a megabyte,
// while everything a plan or a heavy watch may legitimately keep about it
// (heavy keys, per-value counts) stays in the kilobytes.
func denseRelation(name string, heavyCol int) *data.Relation {
	r := data.NewRelation(name, 2, 1<<20)
	for i := int64(0); i < 60000; i++ {
		r.Add(i%300, i/300)
	}
	for j := int64(0); j < 3000; j++ {
		pair := [2]int64{7, 7}
		pair[1-heavyCol] = 1000 + j
		r.Add(pair[0], pair[1])
	}
	return r
}

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCachedPlanRetainsNoGrouping is the heap check behind "the pass dies
// when planning returns": with the pass still referenced the groupings of
// the base relations are megabytes of live heap; once it is dropped, what
// the cached plan (routers and dictionaries included) keeps alive is not.
func TestCachedPlanRetainsNoGrouping(t *testing.T) {
	const slack = 1 << 20
	mr := MultiRound
	tri := data.NewDatabase()
	tri.Put(denseRelation("S1", 0))
	tri.Put(denseRelation("S2", 1))
	tri.Put(denseRelation("S3", 0))
	j2 := data.NewDatabase()
	j2.Put(denseRelation("S1", 1))
	j2.Put(denseRelation("S2", 1))
	for _, tc := range []struct {
		name   string
		q      *query.Query
		db     *data.Database
		forced *Strategy
		want   Strategy
	}{
		{"bin-combination", query.Triangle(), tri, nil, BinCombination},
		{"skew-join", query.Join2(), j2, nil, SkewJoin},
		{"multi-round", query.Triangle(), tri, &mr, MultiRound},
	} {
		e := newEngine(t, Config{P: 64, Seed: 1})
		s := e.settings(ExecOptions{Strategy: tc.forced})
		before := liveHeap()
		ps := new(stats.Pass)
		cp, _ := buildPlan(tc.q, tc.db, s, ps)
		if cp.plan.Strategy != tc.want {
			t.Fatalf("%s: planned %v", tc.name, cp.plan.Strategy)
		}
		withPass := liveHeap() - before
		runtime.KeepAlive(ps)
		ps = nil
		planOnly := liveHeap() - before
		runtime.KeepAlive(cp)
		if withPass < 4*slack {
			t.Fatalf("%s: the pass and plan hold only %d bytes: instance too small to tell a retained grouping", tc.name, withPass)
		}
		if planOnly > slack {
			t.Errorf("%s: the plan alone keeps %d bytes alive (with its pass: %d): it retains groupings of base data",
				tc.name, planOnly, withPass)
		}
	}
}

// TestSingletonsAreNotHeavyBelowP: with fewer tuples than servers the
// threshold m/p floors to 0. A 10-row matching must still plan as skew-free,
// and a standing query over it must stay incremental when deltas insert
// values that occur once.
func TestSingletonsAreNotHeavyBelowP(t *testing.T) {
	q := query.Join2()
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, 10, 1<<20, 1))
	db.Put(workload.Matching("S2", 2, 10, 1<<20, 2))
	e := newEngine(t, Config{P: 16, Seed: 3})
	if plan := e.PlanQuery(q, db); plan.HasSkew || plan.Strategy != HyperCube {
		t.Errorf("10-row matching at p=16: HasSkew = %v, strategy %v; want skew-free HyperCube", plan.HasSkew, plan.Strategy)
	}

	h, err := e.Standing(context.Background(), q, db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := int64(0); i < 5; i++ {
		d := new(data.Delta).Insert("S1", 1<<19+i, 5000+i).Insert("S2", 1<<18+i, 5000+i)
		if err := db.Apply(d); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Advance(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if st := h.Stats(); st.Advances != 5 || st.Reseeds != 0 {
		t.Errorf("five 2-op insert deltas: %d advances, %d reseeds; want 5 and 0", st.Advances, st.Reseeds)
	}
	if got, want := h.Result(), standingOracle(q, db); !join.EqualTupleSets(got, want) {
		t.Errorf("standing result has %d answers, oracle %d", len(got), len(want))
	}
}

// churnScratch rewrites the join scratch pool: it takes n scratches, groups
// a junk relation larger than any test instance in each and fills each
// value arena to capacity with -1, puts them back, and runs a join on the
// pool. Whatever a released pass handed back is overwritten before a plan
// built on that pass runs.
func churnScratch(n int) {
	junk := data.NewRelation("junk", 2, 1<<20)
	for i := int64(0); i < 20000; i++ {
		junk.Add(i%97, i)
	}
	held := make([]*join.Scratch, n)
	for i := range held {
		sc := join.GetScratch()
		sc.Index.Build(junk, []int{1, 0})
		vals := sc.Values(0)
		vals = vals[:cap(vals)]
		for j := range vals {
			vals[j] = -1
		}
		held[i] = sc
	}
	for _, sc := range held {
		join.PutScratch(sc)
	}
	join.Rows(query.Join2(), map[string]*data.Relation{"S1": junk, "S2": junk}, 1<<16)
}

// TestPlansSurviveRelease is the test behind the ownership audit: a plan
// whose pass was released, and the pass's scratch overwritten, predicts,
// bounds, loads and answers exactly like a plan built on a pass that was
// never released. A standing query releases its seed's pass; its heavy
// watch still sees a new heavy hitter and its answers follow the oracle.
func TestPlansSurviveRelease(t *testing.T) {
	hc, sj, mr := HyperCube, SkewJoin, MultiRound
	for _, tc := range []struct {
		instance string
		forced   *Strategy
		want     Strategy
	}{
		{"hit_small", &hc, HyperCube},
		{"planted_triangle", nil, BinCombination},
		{"zipf_multiround", &mr, MultiRound},
		{"zipf_join2", &sj, SkewJoin},
	} {
		var q *query.Query
		var db *data.Database
		p := 32
		if tc.instance == "zipf_join2" {
			q, db = query.Join2(), data.NewDatabase()
			db.Put(workload.Zipf("S1", 3000, 1<<20, 1, 1.3, 200, 1))
			db.Put(workload.Zipf("S2", 3000, 1<<20, 0, 1.3, 200, 2))
		} else {
			q, db, p, _ = benchInstance(tc.instance, 1)
		}
		e := newEngine(t, Config{P: p, Seed: 1})
		s := e.settings(ExecOptions{Strategy: tc.forced})
		kept := new(stats.Pass)
		ref, _ := buildPlan(q, db, s, kept)
		released := new(stats.Pass)
		cp, _ := buildPlan(q, db, s, released)
		released.Release()
		churnScratch(2 * released.Groupings())
		want, err := runPlan(ref, db, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runPlan(cp, db, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(kept)
		if got.Plan.Strategy != tc.want {
			t.Fatalf("%s: planned %v, want %v", tc.instance, got.Plan.Strategy, tc.want)
		}
		if got.PredictedBits != want.PredictedBits || got.Plan.LowerBoundBits != want.Plan.LowerBoundBits || got.MaxLoadBits != want.MaxLoadBits {
			t.Errorf("%s: released pass: predicted %v, lower %v, max load %d; kept pass: %v, %v, %d", tc.instance,
				got.PredictedBits, got.Plan.LowerBoundBits, got.MaxLoadBits, want.PredictedBits, want.Plan.LowerBoundBits, want.MaxLoadBits)
		}
		if oracle := standingOracle(q, db); !join.EqualTupleSets(got.Output, oracle) {
			t.Errorf("%s: %d answers after release, oracle %d", tc.instance, len(got.Output), len(oracle))
		}
	}

	q, db, p, _ := benchInstance("planted_triangle", 1)
	e := newEngine(t, Config{P: p, Seed: 1})
	h, err := e.Standing(context.Background(), q, db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	churnScratch(64)
	light := new(data.Delta)
	for i := int64(0); i < 20; i++ {
		light.Insert("S3", 3, 500000+i)
	}
	heavy := new(data.Delta) // value 999 of S3's first column crosses m/p
	for i := int64(0); i < int64(2*db.MustGet("S3").Size()/p); i++ {
		heavy.Insert("S3", 999, 600000+i)
	}
	for step, d := range []*data.Delta{light, heavy} {
		if err := db.Apply(d); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Advance(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := h.Stats().Reseeds; got != uint64(step) {
			t.Errorf("standing after delta %d: %d reseeds, want %d (the watch misjudged heaviness)", step, got, step)
		}
		if got, want := h.Result(), standingOracle(q, db); !join.EqualTupleSets(got, want) {
			t.Errorf("standing after delta %d: %d answers, oracle %d", step, len(got), len(want))
		}
	}
}

// TestWarmPlanAllocationBudget pins what an uncached plan of the cold_plan
// instance allocates once the join scratch pool is warm. The pass's
// groupings and projections come from the pool and go back when the build
// returns; what is left is the plan, the heavy entries, and the support
// joins' answers. Before the pass was pooled, a plan allocated ≈ 1.8 MiB.
func TestWarmPlanAllocationBudget(t *testing.T) {
	if !poolKeepsPuts() {
		t.Skip("sync.Pool drops Puts in this build (race detector)")
	}
	const budget = 320 << 10
	// One P: the residual bounds and CollectNamed run serially, so which
	// scratch serves which grouping does not hang on the scheduler.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	q, db, p, _ := benchInstance("cold_plan", 1)
	e := newEngine(t, Config{P: p, Seed: 1})
	s := e.settings(ExecOptions{})
	best := uint64(math.MaxUint64)
	for i := 0; i < 12; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buildPlan(q, db, s, nil)
		runtime.ReadMemStats(&after)
		if i >= 2 { // the first builds warm the pool
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if best > budget {
		t.Errorf("a warm uncached plan allocates %d KiB, budget %d KiB", best>>10, budget>>10)
	}
}

// poolKeepsPuts reports whether a sync.Pool hands back what was just put
// into it. Under the race detector Put drops a quarter of its items at
// random, and no pin on what a warm pool saves can hold.
func poolKeepsPuts() bool {
	var p sync.Pool
	for range 64 {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}
