package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/workload"
)

func db2(s1, s2 *data.Relation) *data.Database {
	db := data.NewDatabase()
	db.Put(s1)
	db.Put(s2)
	return db
}

// newEngine is New for tests: an invalid configuration fails the test.
func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// execute is ExecuteContext for tests: an error fails the test.
func execute(t testing.TB, e *Engine, q *query.Query, db *data.Database, opts ExecOptions) Result {
	t.Helper()
	res, err := e.ExecuteContext(context.Background(), q, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runPhys is exec.Run for tests, route-only when skip is set: an error
// fails the test.
func runPhys(t testing.TB, plan *exec.PhysicalPlan, db *data.Database, skip bool) exec.Result {
	t.Helper()
	res, err := exec.Run(plan, db, exec.Config{SkipCompute: skip})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runPipeline executes a multi-round plan for tests and returns its
// head-ordered answers: an error fails the test.
func runPipeline(t testing.TB, pp *rounds.PipelinePlan, db *data.Database) []data.Tuple {
	t.Helper()
	_, out, err := pp.ExecuteWith(db, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPlanSkewFreePicksHyperCube(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Matching("S1", 2, 1000, 100000, 1),
		workload.Matching("S2", 2, 1000, 100000, 2),
	)
	e := newEngine(t, Config{P: 16, Seed: 1})
	plan := e.PlanQuery(q, db)
	if plan.Strategy != HyperCube {
		t.Errorf("strategy = %v, want hypercube", plan.Strategy)
	}
	if plan.HasSkew {
		t.Error("matching data reported as skewed")
	}
	if plan.LowerBoundBits <= 0 {
		t.Error("missing lower bound")
	}
}

func TestPlanSkewedJoinPicksSkewJoin(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.SingleValue("S1", 2, 500, 100000, 1, 7, 1),
		workload.SingleValue("S2", 2, 500, 100000, 1, 7, 2),
	)
	e := newEngine(t, Config{P: 16, Seed: 1})
	plan := e.PlanQuery(q, db)
	if plan.Strategy != SkewJoin {
		t.Errorf("strategy = %v, want skew-join", plan.Strategy)
	}
	if !plan.HasSkew {
		t.Error("skew not detected")
	}
}

func TestPlanSkewedTrianglePicksBinCombination(t *testing.T) {
	q := query.Triangle()
	db := data.NewDatabase()
	db.Put(workload.PlantedHeavy("S1", 400, 100000, 0, []workload.HeavySpec{{Value: 0, Count: 150}}, 1))
	db.Put(workload.Uniform("S2", 2, 400, 100, 2))
	db.Put(workload.Uniform("S3", 2, 400, 100, 3))
	e := newEngine(t, Config{P: 16, Seed: 1})
	plan := e.PlanQuery(q, db)
	if plan.Strategy != BinCombination {
		t.Errorf("strategy = %v, want bin-combination", plan.Strategy)
	}
}

func TestExecuteMatchesReferenceAcrossStrategies(t *testing.T) {
	cases := []struct {
		name string
		q    *query.Query
		db   *data.Database
	}{
		{"hypercube", query.Triangle(), func() *data.Database {
			db := data.NewDatabase()
			db.Put(workload.Matching("S1", 2, 300, 100000, 1))
			db.Put(workload.Matching("S2", 2, 300, 100000, 2))
			db.Put(workload.Matching("S3", 2, 300, 100000, 3))
			return db
		}()},
		{"skew-join", query.Join2(), db2(
			workload.Zipf("S1", 600, 100000, 1, 1.8, 100, 4),
			workload.Zipf("S2", 600, 100000, 1, 1.8, 100, 5),
		)},
		{"bin-combination", query.Star(2), func() *data.Database {
			db := data.NewDatabase()
			db.Put(workload.PlantedHeavy("S1", 300, 100000, 0, []workload.HeavySpec{{Value: 5, Count: 100}}, 6))
			db.Put(workload.PlantedHeavy("S2", 300, 100000, 0, []workload.HeavySpec{{Value: 5, Count: 90}}, 7))
			return db
		}()},
	}
	for _, c := range cases {
		e := newEngine(t, Config{P: 16, Seed: 9})
		res := execute(t, e, c.q, c.db, ExecOptions{})
		want := join.Join(c.q, join.FromDatabase(c.db))
		if !join.EqualTupleSets(res.Output, want) {
			t.Errorf("%s (%v): output %d tuples, want %d",
				c.name, res.Plan.Strategy, len(res.Output), len(want))
		}
		if res.MaxLoadBits <= 0 && len(want) > 0 {
			t.Errorf("%s: no load recorded", c.name)
		}
	}
}

func TestExecuteSkewJoinRemapsRenamedRelations(t *testing.T) {
	// Same Join2 shape but with different relation names and head order.
	q := query.MustParse("q(a,b,c) = R(a,c), T(b,c)")
	db := data.NewDatabase()
	r := workload.SingleValue("R", 2, 300, 100000, 1, 7, 1)
	s := workload.SingleValue("T", 2, 300, 100000, 1, 7, 2)
	db.Put(r)
	db.Put(s)
	e := newEngine(t, Config{P: 8, Seed: 1})
	plan := e.PlanQuery(q, db)
	if plan.Strategy != SkewJoin {
		t.Fatalf("strategy = %v", plan.Strategy)
	}
	res := execute(t, e, q, db, ExecOptions{})
	want := join.Join(q, join.FromDatabase(db))
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("remapped skew join wrong: %d vs %d tuples", len(res.Output), len(want))
	}
}

func TestExecuteSkewJoinIgnoresUnrelatedRelations(t *testing.T) {
	// The engine no longer copies the two joined relations into an
	// isolated database, so the skew-join router must skip relations the
	// query doesn't mention (including ones with other arities).
	q := query.Join2()
	db := db2(
		workload.Zipf("S1", 400, 100000, 1, 1.8, 80, 4),
		workload.Zipf("S2", 400, 100000, 1, 1.8, 80, 5),
	)
	extra := data.NewRelation("U", 1, 100000)
	extra.Add(7)
	extra.Add(8)
	db.Put(extra)
	e := newEngine(t, Config{P: 16, Seed: 9})
	plan := e.PlanQuery(q, db)
	if plan.Strategy != SkewJoin {
		t.Fatalf("strategy = %v, want skew-join", plan.Strategy)
	}
	res := execute(t, e, q, db, ExecOptions{})
	want := join.Join(q, join.FromDatabase(db))
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("output %d tuples, want %d", len(res.Output), len(want))
	}
}

func TestExecuteHyperCubeIgnoresUnrelatedRelations(t *testing.T) {
	// Same contract for the skew-free path: the HyperCube router must skip
	// relations the query doesn't mention instead of panicking in a sender
	// goroutine (which would kill the process, not fail the Execute).
	q := query.Join2()
	db := db2(
		workload.Matching("S1", 2, 300, 100000, 1),
		workload.Matching("S2", 2, 300, 100000, 2),
	)
	extra := data.NewRelation("U", 1, 100000)
	extra.Add(7)
	extra.Add(8)
	db.Put(extra)
	e := newEngine(t, Config{P: 16, Seed: 9})
	plan := e.PlanQuery(q, db)
	if plan.Strategy != HyperCube {
		t.Fatalf("strategy = %v, want hypercube", plan.Strategy)
	}
	res := execute(t, e, q, db, ExecOptions{})
	want := join.Join(q, join.FromDatabase(db))
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("output %d tuples, want %d", len(res.Output), len(want))
	}
}

func TestForceStrategy(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Matching("S1", 2, 300, 100000, 1),
		workload.Matching("S2", 2, 300, 100000, 2),
	)
	want := join.Join(q, join.FromDatabase(db))
	e := newEngine(t, Config{P: 8, Seed: 1})
	for _, force := range []Strategy{HyperCube, SkewJoin, BinCombination, MultiRound} {
		res := execute(t, e, q, db, ExecOptions{Strategy: &force})
		if res.Plan.Strategy != force {
			t.Errorf("forced %v ignored: ran %v", force, res.Plan.Strategy)
		}
		if !join.EqualTupleSets(res.Output, want) {
			t.Errorf("forced %v gave wrong output", force)
		}
		// Every strategy accounts the bits it shipped, not just the busiest
		// server's share of them.
		if res.MaxLoadBits <= 0 || res.TotalBits < res.MaxLoadBits {
			t.Errorf("forced %v: TotalBits = %d, MaxLoadBits = %d, want TotalBits >= MaxLoadBits > 0",
				force, res.TotalBits, res.MaxLoadBits)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if HyperCube.String() != "hypercube" || SkewJoin.String() != "skew-join" ||
		BinCombination.String() != "bin-combination" || Strategy(9).String() != "?" {
		t.Error("Strategy strings wrong")
	}
}

func TestNewRejectsTooFewServers(t *testing.T) {
	if _, err := New(Config{P: 1}); err == nil {
		t.Error("New accepted p = 1")
	}
}

func TestPlanMissingRelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newEngine(t, Config{P: 4}).PlanQuery(query.Join2(), data.NewDatabase())
}

func TestIsJoin2Shaped(t *testing.T) {
	if !isJoin2Shaped(query.Join2()) {
		t.Error("Join2 not recognized")
	}
	if isJoin2Shaped(query.Triangle()) || isJoin2Shaped(query.Cartesian(2)) {
		t.Error("false positive")
	}
	// Shared variable at first position: not the §4.1 shape.
	q := query.MustParse("q(x,y,z) = A(z,x), B(z,y)")
	if isJoin2Shaped(q) {
		t.Error("first-position share misclassified")
	}
}

func TestExplainContainsAnalysis(t *testing.T) {
	q := query.Triangle()
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, 500, 100000, 1))
	db.Put(workload.Matching("S2", 2, 500, 100000, 2))
	db.Put(workload.Matching("S3", 2, 500, 100000, 3))
	out := newEngine(t, Config{P: 16, Seed: 1}).Explain(q, db)
	for _, want := range []string{
		"strategy: hypercube", "τ*", "packing vertices", "share exponents",
		"integer shares", "lower bound",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainShowsBinCombosUnderSkew(t *testing.T) {
	q := query.Star(2)
	db := data.NewDatabase()
	db.Put(workload.PlantedHeavy("S1", 300, 100000, 0, []workload.HeavySpec{{Value: 5, Count: 100}}, 1))
	db.Put(workload.PlantedHeavy("S2", 300, 100000, 0, []workload.HeavySpec{{Value: 5, Count: 90}}, 2))
	out := newEngine(t, Config{P: 16, Seed: 1}).Explain(q, db)
	if !strings.Contains(out, "bin combinations") {
		t.Errorf("Explain should list bin combinations under skew:\n%s", out)
	}
}

func TestForceMultiRound(t *testing.T) {
	q := query.Triangle()
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, 300, 100000, 1))
	db.Put(workload.Matching("S2", 2, 300, 100000, 2))
	db.Put(workload.Matching("S3", 2, 300, 100000, 3))
	force := MultiRound
	e := newEngine(t, Config{P: 8, Seed: 1})
	res := execute(t, e, q, db, ExecOptions{Strategy: &force})
	if res.Plan.Strategy != MultiRound {
		t.Fatalf("forced strategy ignored: %v", res.Plan.Strategy)
	}
	if res.Plan.Rounds != 2 {
		t.Errorf("Plan.Rounds = %d, want 2", res.Plan.Rounds)
	}
	if res.Plan.PredictedBits <= 0 {
		t.Error("multi-round plan has no cost prediction")
	}
	want := join.Join(q, join.FromDatabase(db))
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("multi-round output %d tuples, want %d", len(res.Output), len(want))
	}
	if res.MaxLoadBits <= 0 || res.TotalBits <= 0 {
		t.Error("multi-round loads not accounted")
	}
}

func TestConsiderMultiRoundCostComparison(t *testing.T) {
	// Sparse matchings: per-round loads ~m/p beat the one-round m/p^{2/3},
	// so the cost comparison should flip to the pipeline — and the choice
	// must agree with the two predictions it compares.
	q := query.Triangle()
	db := data.NewDatabase()
	for j, a := range q.Atoms {
		db.Put(workload.Matching(a.Name, 2, 4096, 1<<20, int64(j+1)))
	}
	e := newEngine(t, Config{P: 64, Seed: 3, ConsiderMultiRound: true})
	plan := e.PlanQuery(q, db)

	base := newEngine(t, Config{P: 64, Seed: 3}).PlanQuery(q, db)
	mrPred := rounds.PlanPipeline(q, db, rounds.Config{P: 64, Seed: 3, SkewAware: true}).PredictedSumMaxBits
	wantMR := base.PredictedBits > 0 && mrPred < base.PredictedBits
	if gotMR := plan.Strategy == MultiRound; gotMR != wantMR {
		t.Fatalf("choice %v disagrees with predictions (one-round %.0f, multi-round %.0f)",
			plan.Strategy, base.PredictedBits, mrPred)
	}
	if wantMR && !strings.Contains(plan.Reason, "beats one-round") {
		t.Errorf("reason does not explain the comparison: %q", plan.Reason)
	}
	if !wantMR && !strings.Contains(plan.Reason, "multi-round rejected") {
		t.Errorf("reason does not record the rejection: %q", plan.Reason)
	}
	// Execution under the comparison stays correct.
	res := execute(t, e, q, db, ExecOptions{})
	want := join.Join(q, join.FromDatabase(db))
	if !join.EqualTupleSets(join.Dedup(res.Output), want) {
		t.Errorf("cost-comparing engine output %d tuples, want %d", len(res.Output), len(want))
	}
}

func TestMultiRoundPlanCached(t *testing.T) {
	q := query.Triangle()
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, 400, 100000, 1))
	db.Put(workload.Matching("S2", 2, 400, 100000, 2))
	db.Put(workload.Matching("S3", 2, 400, 100000, 3))
	force := MultiRound
	e := newEngine(t, Config{P: 8, Seed: 1})
	r1 := execute(t, e, q, db, ExecOptions{Strategy: &force})
	r2 := execute(t, e, q, db, ExecOptions{Strategy: &force})
	st := e.CacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss + 1 hit", st)
	}
	if !join.EqualTupleSets(r1.Output, r2.Output) {
		t.Error("cached multi-round plan changed its answers")
	}
}

func TestExplainListsPredictedCosts(t *testing.T) {
	q := query.Triangle()
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, 500, 100000, 1))
	db.Put(workload.Matching("S2", 2, 500, 100000, 2))
	db.Put(workload.Matching("S3", 2, 500, 100000, 3))
	out := newEngine(t, Config{P: 16, Seed: 1}).Explain(q, db)
	for _, want := range []string{
		"predicted cost per strategy", "hypercube", "skew-join", "bin-combination",
		"multi-round", "SumMaxBits", "← chosen", "not §4.1-shaped",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}
