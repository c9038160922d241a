package exec_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/workload"
)

// outputInstances are uniform, zipf and matching inputs for join2 and the
// triangle, small enough to join on every server twice per plan.
func outputInstances() map[string]*data.Database {
	mk := func(rels ...*data.Relation) *data.Database {
		db := data.NewDatabase()
		for _, r := range rels {
			db.Put(r)
		}
		return db
	}
	return map[string]*data.Database{
		"join2/uniform":  mk(workload.Uniform("S1", 2, 300, 40, 1), workload.Uniform("S2", 2, 300, 40, 2)),
		"join2/zipf":     mk(workload.Zipf("S1", 400, 1<<16, 1, 1.4, 50, 3), workload.Zipf("S2", 400, 1<<16, 1, 1.4, 50, 4)),
		"join2/matching": mk(workload.Matching("S1", 2, 300, 300, 5), workload.Matching("S2", 2, 300, 300, 6)),
		"triangle/uniform": mk(workload.Uniform("S1", 2, 300, 30, 7), workload.Uniform("S2", 2, 300, 30, 8),
			workload.Uniform("S3", 2, 300, 30, 9)),
		"triangle/zipf": mk(workload.SkewedGraph("S1", 400, 60, 1.3, 10), workload.SkewedGraph("S2", 400, 60, 1.3, 11),
			workload.SkewedGraph("S3", 400, 60, 1.3, 12)),
		"triangle/matching": mk(workload.Matching("S1", 2, 100, 100, 13), workload.Matching("S2", 2, 100, 100, 14),
			workload.Matching("S3", 2, 100, 100, 15)),
	}
}

// TestRunOutputIsServerOrderConcatenation pins the answer sequence: for
// every strategy, Output is — element for element — the concatenation in
// server-ID order of join.Join over each server's received fragments, then
// join.Dedup where the plan says so. The fragments of a second round equal
// the execution's row for row, because a fragment holds its rows in
// (part, row) order whatever the worker count.
func TestRunOutputIsServerOrderConcatenation(t *testing.T) {
	const p = 16
	for name, db := range outputInstances() {
		q := query.Join2()
		if db.Get("S3") != nil {
			q = query.Triangle()
		}
		plans := []*exec.PhysicalPlan{
			hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: 1}).Phys,
			skew.PlanGeneral(q, db, skew.GeneralConfig{P: p, Seed: 1}).Phys,
		}
		if db.Get("S3") == nil {
			plans = append(plans, skew.PlanJoin(q, db, skew.JoinConfig{P: p, Seed: 1}).Phys)
		}
		for _, plan := range plans {
			c := mpc.NewCluster(plan.Virtual)
			var rels []*data.Relation
			for _, name := range plan.Relations {
				rels = append(rels, db.MustGet(name))
			}
			if err := c.RoundRelations(plan.Router, rels...); err != nil {
				t.Fatalf("%s/%s: round: %v", name, plan.Strategy, err)
			}
			var want []data.Tuple
			for _, s := range c.Servers {
				want = append(want, join.Join(q, s.Received)...)
			}
			if plan.Dedup {
				want = join.Dedup(want)
			}
			res, err := exec.Execute(exec.OneRound(plan), db, exec.Config{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, plan.Strategy, err)
			}
			if len(want) == 0 && name != "triangle/matching" {
				t.Fatalf("%s/%s: instance has no answers", name, plan.Strategy)
			}
			if len(res.Output) != len(want) {
				t.Fatalf("%s/%s: %d answers, want %d", name, plan.Strategy, len(res.Output), len(want))
			}
			for i := range want {
				if !slices.Equal(res.Output[i], want[i]) {
					t.Fatalf("%s/%s: answer %d is %v, want %v", name, plan.Strategy, i, res.Output[i], want[i])
				}
			}
		}
	}
}

// TestRunAllocatesOneHeaderPerAnswer bounds what one warm Run allocates for
// n answers of k values: the values (8k bytes) and one 24-byte header each,
// plus a fixed per-run allowance for routing and join scratch. On the
// skewed join a second header array or a gather copy (24n bytes more) does
// not fit. On the hit_small shape the answers are few and the allowance is
// the fragments the round delivers (8 bytes per routed value) plus 32 KiB:
// the local joins' working memory is pooled, so each server allocates only
// its answers.
func TestRunAllocatesOneHeaderPerAnswer(t *testing.T) {
	q := query.Join2()
	skewed := data.NewDatabase()
	skewed.Put(workload.Zipf("S1", 900, 1<<16, 1, 1.2, 40, 1))
	skewed.Put(workload.Zipf("S2", 900, 1<<16, 1, 1.2, 40, 2))
	matchings := data.NewDatabase()
	matchings.Put(workload.Matching("S1", 2, 2000, 1<<13, 1))
	matchings.Put(workload.Matching("S2", 2, 2000, 1<<13, 7920))
	for _, c := range []struct {
		name       string
		plan       *exec.PhysicalPlan
		db         *data.Database
		minAnswers int
		// warmPool: the budget holds only while join's pooled scratch
		// survives from one Run to the next.
		warmPool bool
		// budget is the bytes one Run may allocate for n answers of k
		// values after routing routed tuples of arity 2.
		budget func(n, k int, routed int64) uint64
	}{
		{"skew-join zipf", skew.PlanJoin(q, skewed, skew.JoinConfig{P: 16, Seed: 1}).Phys, skewed, 80_000, false,
			func(n, k int, _ int64) uint64 { return uint64(float64(n*(8*k+24))*1.05) + 1<<20 }},
		{"hit_small hypercube matchings", hypercube.BuildPlan(q, matchings, hypercube.Config{P: 16, Seed: 1}).Phys, matchings, 400, true,
			func(n, k int, routed int64) uint64 { return uint64(routed)*2*8 + uint64(n*(8*k+24)) + 32<<10 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.warmPool {
				if !poolKeepsPuts() {
					t.Skip("sync.Pool drops Puts in this build (race detector)")
				}
				// One P, as in testing.AllocsPerRun: a sync.Pool keeps a shard
				// per P, so with more the warm run may park scratch where the
				// measured one misses. Other rows keep the test's GOMAXPROCS,
				// so they also measure the parallel path.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			var pool exec.ClusterPool
			cfg := exec.Config{Clusters: &pool}
			warm, err := exec.Execute(exec.OneRound(c.plan), c.db, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n, k := len(warm.Output), q.NumVars()
			if n < c.minAnswers {
				t.Fatalf("instance derives %d answers, want at least %d", n, c.minAnswers)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := exec.Execute(exec.OneRound(c.plan), c.db, cfg)
			runtime.ReadMemStats(&after)
			if err != nil || len(res.Output) != n {
				t.Fatalf("second run: %d answers, err %v", len(res.Output), err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			if budget := c.budget(n, k, res.Rounds[0].TotalTuples); got > budget {
				t.Errorf("one Run of %d answers allocated %d bytes, budget %d", n, got, budget)
			}
		})
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

// TestRunOutputAliasing: every answer is a len == cap == k slice, so
// appending to one reallocates instead of overwriting its neighbour, and
// writing into one changes neither its neighbour nor the database.
func TestRunOutputAliasing(t *testing.T) {
	q := query.Join2()
	db := outputInstances()["join2/zipf"]
	var columns [][]int64
	for _, name := range db.Names() {
		for _, col := range db.MustGet(name).Columns() {
			columns = append(columns, slices.Clone(col))
		}
	}
	res, err := exec.Execute(exec.OneRound(skew.PlanJoin(q, db, skew.JoinConfig{P: 16, Seed: 1}).Phys), db, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output
	if len(out) < 2 {
		t.Fatalf("%d answers, want several", len(out))
	}
	for i, a := range out {
		if len(a) != q.NumVars() || cap(a) != len(a) {
			t.Fatalf("answer %d: len %d cap %d, want both %d", i, len(a), cap(a), q.NumVars())
		}
	}
	for i := 0; i+1 < len(out); i++ {
		next := slices.Clone(out[i+1])
		_ = append(out[i], -1)
		for v := range out[i] {
			out[i][v] = -2
		}
		if !slices.Equal(out[i+1], next) {
			t.Fatalf("writing answer %d changed answer %d: %v, was %v", i, i+1, out[i+1], next)
		}
	}
	c := 0
	for _, name := range db.Names() {
		for a, col := range db.MustGet(name).Columns() {
			if !slices.Equal(col, columns[c]) {
				t.Fatalf("writing answers changed column %d of %s", a, name)
			}
			c++
		}
	}
}

// TestRunOutputEdges: no answers anywhere is a nil Output, an empty
// relation likewise, and one server holding every answer fills Output alone.
func TestRunOutputEdges(t *testing.T) {
	q := query.Join2()
	rel := func(name string, z0 int64, m int) *data.Relation {
		r := data.NewRelation(name, 2, 1<<10)
		for i := int64(0); i < int64(m); i++ {
			r.Add(i, z0+i%4)
		}
		return r
	}
	toZero := mpc.RouterFunc(func(*data.Relation, int, []int) []int { return []int{0} })
	run := func(router mpc.Router, s1, s2 *data.Relation) []data.Tuple {
		t.Helper()
		db := data.NewDatabase()
		db.Put(s1)
		db.Put(s2)
		if router == nil {
			router = hypercube.BuildPlan(q, db, hypercube.Config{P: 3, Seed: 1}).Phys.Router
		}
		plan := &exec.PhysicalPlan{Strategy: "test", Virtual: 3, Physical: 3, Router: router, Relations: q.AtomNames(), Query: q}
		res, err := exec.Execute(exec.OneRound(plan), db, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}
	if out := run(nil, rel("S1", 0, 40), rel("S2", 100, 40)); out != nil {
		t.Errorf("disjoint join columns: Output = %d answers, want nil", len(out))
	}
	if out := run(nil, rel("S1", 0, 40), rel("S2", 0, 0)); out != nil {
		t.Errorf("one relation empty: Output = %d answers, want nil", len(out))
	}
	// 40 tuples over 4 z-values on both sides: 4 · 10 · 10 answers.
	want := join.Join(q, map[string]*data.Relation{"S1": rel("S1", 0, 40), "S2": rel("S2", 0, 40)})
	out := run(toZero, rel("S1", 0, 40), rel("S2", 0, 40))
	if len(want) != 400 || !join.EqualTupleSets(out, want) {
		t.Fatalf("one server holds everything: %d answers, want the %d (400) of the whole join", len(out), len(want))
	}
}
