package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestBuildPlanGroupsEachProjectionOnce counts groupings: statistics, the
// lower bounds and the bin-combination planner of one triangle plan ask for
// 27 between them and, through one pass, build the nine distinct ones.
func TestBuildPlanGroupsEachProjectionOnce(t *testing.T) {
	q, db, p, _ := benchInstance("cold_plan", 1)
	e := newEngine(t, Config{P: p, Seed: 1})
	ps := new(stats.Pass)
	cp := buildPlan(q, db, e.settings(ExecOptions{}), ps)
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
		cp := buildPlan(tc.q, tc.db, s, ps)
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
