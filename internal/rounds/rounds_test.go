package rounds

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/workload"
)

// run lowers plan over db and executes it: the per-round loads and the
// head-ordered answers.
func run(t *testing.T, plan Plan, db *data.Database, cfg Config) (exec.Result, []data.Tuple) {
	t.Helper()
	return execute(t, Lower(plan, db, cfg, new(stats.Pass)), db)
}

// execute runs pp's pipeline for tests: an error fails the test.
func execute(t *testing.T, pp *PipelinePlan, db *data.Database) (exec.Result, []data.Tuple) {
	t.Helper()
	res, err := exec.Execute(pp.Pipe, db, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res, res.Output
}

func dbFor(q *query.Query, m int, domain int64, seed int64) *data.Database {
	specs := make([]workload.AtomSpec, q.NumAtoms())
	for j, a := range q.Atoms {
		d := domain
		if a.Arity() == 1 && d < int64(4*m) {
			d = int64(4 * m) // keep unary relations sparse enough to sample
		}
		specs[j] = workload.AtomSpec{Name: a.Name, Arity: a.Arity(), M: m, Domain: d}
	}
	return workload.ForQuery(specs, seed)
}

func TestBuildPlanShapes(t *testing.T) {
	cases := []struct {
		q         *query.Query
		steps     int
		cartesian int // steps with no join vars
	}{
		{query.Join2(), 1, 0},
		{query.Triangle(), 2, 0},
		{query.Path(3), 2, 0},
		{query.Star(3), 2, 0},
		{query.Cartesian(2), 1, 1},
	}
	for _, c := range cases {
		plan := BuildPlan(c.q)
		if len(plan.Steps) != c.steps {
			t.Errorf("%s: %d steps, want %d", c.q.Name, len(plan.Steps), c.steps)
		}
		cart := 0
		for _, st := range plan.Steps {
			if len(st.JoinVars) == 0 {
				cart++
			}
		}
		if cart != c.cartesian {
			t.Errorf("%s: %d cartesian steps, want %d", c.q.Name, cart, c.cartesian)
		}
		// Final schema covers all variables.
		last := plan.Steps[len(plan.Steps)-1]
		if len(last.OutVars) != c.q.NumVars() {
			t.Errorf("%s: final schema %v misses variables", c.q.Name, last.OutVars)
		}
	}
}

func TestBuildPlanConnectedAvoidsCartesian(t *testing.T) {
	plan := BuildPlan(query.Cycle(4))
	for i, st := range plan.Steps {
		if len(st.JoinVars) == 0 {
			t.Errorf("step %d of C4 plan is cartesian", i)
		}
	}
}

func TestRunMatchesReference(t *testing.T) {
	for _, q := range []*query.Query{
		query.Join2(), query.Triangle(), query.Path(3), query.Star(2), query.Cartesian(2), query.Cycle(4),
	} {
		db := dbFor(q, 250, 40, 7)
		want := join.Join(q, join.FromDatabase(db))
		for _, skewAware := range []bool{false, true} {
			_, out := run(t, BuildPlan(q), db, Config{P: 8, Seed: 3, SkewAware: skewAware})
			if !join.EqualTupleSets(out, want) {
				t.Errorf("%s skewAware=%v: %d vs %d tuples",
					q.Name, skewAware, len(out), len(want))
			}
		}
	}
}

func TestRunHeadOrderCorrect(t *testing.T) {
	// Query whose plan order differs from head order: verify column
	// permutation back into head order.
	q := query.MustParse("q(a,b,c) = R(b,c), S(a,b)")
	db := data.NewDatabase()
	r := data.NewRelation("R", 2, 100)
	r.Add(1, 2)
	s := data.NewRelation("S", 2, 100)
	s.Add(9, 1)
	db.Put(r)
	db.Put(s)
	_, out := run(t, BuildPlan(q), db, Config{P: 4, Seed: 1})
	if len(out) != 1 {
		t.Fatalf("output = %v", out)
	}
	// Head (a,b,c) = (9,1,2).
	got := out[0]
	if got[0] != 9 || got[1] != 1 || got[2] != 2 {
		t.Errorf("head order wrong: %v", got)
	}
}

func TestRunRoundsAccounting(t *testing.T) {
	q := query.Triangle()
	db := dbFor(q, 300, 50, 5)
	res, _ := run(t, BuildPlan(q), db, Config{P: 8, Seed: 2})
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(res.Rounds))
	}
	var sum int64
	for _, r := range res.Rounds {
		if r.MaxBits <= 0 || r.TotalBits < r.MaxBits {
			t.Errorf("bad round load %+v", r)
		}
		sum += r.MaxBits
	}
	if res.MaxLoadBits() != sum {
		t.Error("aggregate load bookkeeping wrong")
	}
}

func TestSkewAwareBeatsPlainOnSkewedStep(t *testing.T) {
	// Join2 with a single shared heavy z: the plain hash join's round has
	// Ω(m) max load; the skew-aware round splits it across a grid.
	q := query.Join2()
	db := data.NewDatabase()
	db.Put(workload.SingleValue("S1", 2, 1000, 100000, 1, 7, 1))
	db.Put(workload.SingleValue("S2", 2, 1000, 100000, 1, 7, 2))
	plan := BuildPlan(q)
	plain, plainOut := run(t, plan, db, Config{P: 64, Seed: 3})
	aware, awareOut := run(t, plan, db, Config{P: 64, Seed: 3, SkewAware: true})
	if !join.EqualTupleSets(plainOut, awareOut) {
		t.Fatal("modes disagree on output")
	}
	if aware.Rounds[0].MaxBits*4 > plain.Rounds[0].MaxBits {
		t.Errorf("skew-aware round (%d bits) not clearly below plain (%d bits)",
			aware.Rounds[0].MaxBits, plain.Rounds[0].MaxBits)
	}
}

func TestMultiRoundVsOneRoundTradeoffMatchings(t *testing.T) {
	// On matchings (tiny intermediates) the 2-round plan for C3 has
	// per-round load ~m/p, below the one-round HC's m/p^{2/3}.
	q := query.Triangle()
	db := data.NewDatabase()
	m := 4096
	for j, a := range q.Atoms {
		db.Put(workload.Matching(a.Name, 2, m, 1<<20, int64(j+1)))
	}
	res, _ := run(t, BuildPlan(q), db, Config{P: 64, Seed: 1})
	// Each round's max should be near 2m/p (both sides hashed), far below
	// m/p^{2/3}.
	bitsPer := db.MustGet("S1").BitsPerTuple()
	perRoundBudget := 6 * int64(m) / 64 * bitsPer // generous constant
	for i, r := range res.Rounds {
		if r.MaxBits > perRoundBudget {
			t.Errorf("round %d load %d exceeds ~m/p budget %d", i, r.MaxBits, perRoundBudget)
		}
	}
}

func TestRunPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Lower(BuildPlan(query.Join2()), data.NewDatabase(), Config{P: 1}, new(stats.Pass)) },
		func() { BuildPlan(&query.Query{Name: "bad"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRunSingleAtomQuery(t *testing.T) {
	q := query.MustParse("q(a,b) = R(b,a)")
	db := data.NewDatabase()
	r := data.NewRelation("R", 2, 10)
	r.Add(1, 2) // R(b=1, a=2) → head (a,b) = (2,1)
	db.Put(r)
	res, out := run(t, BuildPlan(q), db, Config{P: 4, Seed: 1})
	if len(out) != 1 || out[0][0] != 2 || out[0][1] != 1 {
		t.Errorf("single-atom output = %v", out)
	}
	if len(res.Rounds) != 0 {
		t.Errorf("single atom should need 0 rounds, got %d", len(res.Rounds))
	}
}

// TestPipelineIntermediatesStayResident is the residency gate: every round
// after the first consumes its intermediate server-to-server (ResidentTuples
// accounts it), and no intermediate ever appears in the caller's database.
func TestPipelineIntermediatesStayResident(t *testing.T) {
	q := query.Triangle()
	db := dbFor(q, 300, 50, 5)
	before := len(db.Relations)
	for _, skewAware := range []bool{false, true} {
		res, _ := run(t, BuildPlan(q), db, Config{P: 8, Seed: 2, SkewAware: skewAware})
		if len(res.Rounds) != 2 {
			t.Fatalf("rounds = %d, want 2", len(res.Rounds))
		}
		if res.Rounds[0].ResidentTuples != 0 {
			t.Errorf("skewAware=%v: round 1 has resident input (%d tuples) — both inputs are base relations",
				skewAware, res.Rounds[0].ResidentTuples)
		}
		if res.Rounds[0].Intermediate > 0 && res.Rounds[1].ResidentTuples != int64(res.Rounds[0].Intermediate) {
			t.Errorf("skewAware=%v: round 2 shuffled %d resident tuples, want the full intermediate %d",
				skewAware, res.Rounds[1].ResidentTuples, res.Rounds[0].Intermediate)
		}
	}
	if len(db.Relations) != before {
		t.Errorf("database gained relations during pipelined execution: %v", db.Names())
	}
	for _, name := range []string{"tmp1", "result"} {
		if db.Get(name) != nil {
			t.Errorf("intermediate %q round-tripped through the database", name)
		}
	}
}

// TestPipelinePlanReusable: a lowered plan executes repeatedly (and is what
// the engine caches), producing identical answers each time.
func TestPipelinePlanReusable(t *testing.T) {
	q := query.Triangle()
	db := dbFor(q, 250, 40, 9)
	pp := PlanPipeline(q, db, Config{P: 8, Seed: 4, SkewAware: true})
	want := join.Join(q, join.FromDatabase(db))
	for i := 0; i < 3; i++ {
		_, out := execute(t, pp, db)
		if !join.EqualTupleSets(out, want) {
			t.Fatalf("execution %d: %d vs %d tuples", i, len(out), len(want))
		}
	}
}

// TestPredictedSumMaxBits: the cost prediction is positive and within a
// reasonable factor of the realized SumMaxBits on a skew-free instance.
func TestPredictedSumMaxBits(t *testing.T) {
	q := query.Triangle()
	db := data.NewDatabase()
	for j, a := range q.Atoms {
		db.Put(workload.Matching(a.Name, 2, 4096, 1<<20, int64(j+1)))
	}
	pp := PlanPipeline(q, db, Config{P: 64, Seed: 1, SkewAware: true})
	if pp.Pipe.PredictedSumMaxBits <= 0 {
		t.Fatal("no cost prediction")
	}
	res, _ := execute(t, pp, db)
	ratio := pp.Pipe.PredictedSumMaxBits / float64(res.MaxLoadBits())
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("prediction %f vs realized %d (ratio %f) implausible",
			pp.Pipe.PredictedSumMaxBits, res.MaxLoadBits(), ratio)
	}
}

// TestSingleAtomColumnarFastPath: the zero-step plan permutes columns into
// head order without any communication round.
func TestSingleAtomColumnarFastPath(t *testing.T) {
	q := query.MustParse("q(a,b,c) = R(c,a,b)")
	db := data.NewDatabase()
	r := data.NewRelation("R", 3, 100)
	r.Add(3, 1, 2) // R(c=3,a=1,b=2) → head (1,2,3)
	r.Add(6, 4, 5)
	db.Put(r)
	res, out := run(t, BuildPlan(q), db, Config{P: 4, Seed: 1})
	if len(out) != 2 || len(res.Rounds) != 0 {
		t.Fatalf("output = %v, rounds = %d", out, len(res.Rounds))
	}
	want := map[string]bool{
		data.Tuple{1, 2, 3}.Key(): true,
		data.Tuple{4, 5, 6}.Key(): true,
	}
	for _, tu := range out {
		if !want[tu.Key()] {
			t.Errorf("unexpected head-order tuple %v", tu)
		}
	}
}

// TestSkewAwareNoGridBloatOnSparseIntermediates: when an intermediate's
// size estimate collapses (matchings barely overlap), frequency-1 keys
// must not be classified heavy — the virtual layout stays at p servers.
func TestSkewAwareNoGridBloatOnSparseIntermediates(t *testing.T) {
	q := query.Triangle()
	db := data.NewDatabase()
	for j, a := range q.Atoms {
		db.Put(workload.Matching(a.Name, 2, 2000, 1<<20, int64(j+1)))
	}
	pp := PlanPipeline(q, db, Config{P: 64, Seed: 1, SkewAware: true})
	for i, st := range pp.Pipe.Stages {
		if st.Plan.Virtual != 64 {
			t.Errorf("stage %d allocated %d virtual servers on skew-free matchings, want 64",
				i, st.Plan.Virtual)
		}
	}
	// A provably-empty chain (disjoint join columns) must not bloat either.
	chain := query.MustParse("q(x,y,z,w) = A(x,y), B(y,z), C(z,w)")
	cdb := data.NewDatabase()
	a := data.NewRelation("A", 2, 1000)
	b := data.NewRelation("B", 2, 1000)
	c := data.NewRelation("C", 2, 1000)
	for i := int64(0); i < 100; i++ {
		a.Add(i, i)     // y in [0,100)
		b.Add(500+i, i) // y in [500,600): disjoint from A's
		c.Add(i, 900-i)
	}
	cdb.Put(a)
	cdb.Put(b)
	cdb.Put(c)
	cpp := PlanPipeline(chain, cdb, Config{P: 16, Seed: 2, SkewAware: true})
	for i, st := range cpp.Pipe.Stages {
		if st.Plan.Virtual != 16 {
			t.Errorf("chain stage %d allocated %d virtual servers, want 16", i, st.Plan.Virtual)
		}
	}
	_, out := execute(t, cpp, cdb)
	if len(out) != 0 {
		t.Errorf("disjoint chain produced %d tuples", len(out))
	}
}

// TestKeyHashMatchesFamilyHash: the step router hashes join keys with the
// per-position seeds it resolved once at plan time, and every key lands on
// exactly the server the per-value Family.Hash form picks — for one- and
// two-column keys, over random values of every magnitude and sign. Nothing
// is heavy in plain mode, so each left row routes to its key's light server.
func TestKeyHashMatchesFamilyHash(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	widths := map[int]bool{}
	for _, q := range []*query.Query{query.Triangle(), query.MustParse("q(a,b,c) = R(a,b), S(a,b,c)")} {
		db := dbFor(q, 200, 50, 3)
		pp := PlanPipeline(q, db, Config{P: 64, Seed: 5})
		for si, st := range pp.Pipe.Stages {
			r := st.Plan.Router.(*skew.BinaryRouter)
			step := pp.Logical.Steps[si]
			family := hashing.NewFamily(5*1315423911 + uint64(si) + 1)
			keyPos := keyPositions(step.LeftVars, step.JoinVars)
			widths[len(keyPos)] = true
			const n = 2000
			cols := make([][]int64, len(step.LeftVars))
			for a := range cols {
				cols[a] = make([]int64, n)
				for i := range cols[a] {
					cols[a][i] = int64(rng.Uint64()) >> rng.Intn(64)
				}
			}
			rel := data.NewRelation(step.Left, len(cols), 1<<62)
			rel.AdoptColumns(cols, n)
			for row := 0; row < n; row++ {
				h := 0
				for i, pos := range keyPos {
					h = h*31 + family.Hash(dimKey+i, cols[pos][row], 1<<30)
				}
				if h < 0 {
					h = -h
				}
				if got, want := r.Bind(rel.Name).Destinations(cols, row, nil), h%64; len(got) != 1 || got[0] != want {
					t.Fatalf("%s: key %v routes to %v, Family.Hash form %d", q.Name, rel.Tuple(row), got, want)
				}
			}
		}
	}
	if !widths[1] || !widths[2] {
		t.Fatalf("key widths covered: %v, want 1 and 2", widths)
	}
}

// mixedJoin2 is a join2 whose key 1 is heavy on both sides, key 2 on S1
// only and key 3 on S2 only (at p = 16 and 64).
func mixedJoin2() *data.Database {
	db := data.NewDatabase()
	db.Put(workload.PlantedHeavy("S1", 5000, 1<<20, 1, []workload.HeavySpec{{Value: 1, Count: 1500}, {Value: 2, Count: 800}, {Value: 3, Count: 60}}, 1))
	db.Put(workload.PlantedHeavy("S2", 5000, 1<<20, 1, []workload.HeavySpec{{Value: 1, Count: 1500}, {Value: 2, Count: 60}, {Value: 3, Count: 800}}, 2))
	return db
}

// TestStepPlansLikeSkewJoin: a one-step pipeline is §4.1's skew join on its
// own inputs, so both lay out the same virtual servers and classify the
// same heavy keys — one budget per class, not one product-weighted sum.
func TestStepPlansLikeSkewJoin(t *testing.T) {
	db := mixedJoin2()
	for _, p := range []int{16, 64, 256} {
		jp := skew.PlanJoin(query.Join2(), db, skew.JoinConfig{P: p, Seed: 1})
		pp := PlanPipeline(query.Join2(), db, Config{P: p, Seed: 1, SkewAware: true})
		if len(pp.Pipe.Stages) != 1 {
			t.Fatalf("join2 lowered to %d stages, want 1", len(pp.Pipe.Stages))
		}
		st := pp.Pipe.Stages[0].Plan
		if st.Virtual != jp.Phys.Virtual {
			t.Errorf("p=%d: step has %d virtual servers, skew join %d", p, st.Virtual, jp.Phys.Virtual)
		}
		h1, h2, h12 := st.Router.(*skew.BinaryRouter).Classes()
		if h1 != jp.NumH1 || h2 != jp.NumH2 || h12 != jp.NumH12 {
			t.Errorf("p=%d: step classes H1/H2/H12 = %d/%d/%d, skew join %d/%d/%d",
				p, h1, h2, h12, jp.NumH1, jp.NumH2, jp.NumH12)
		}
		if p == 16 && (jp.NumH1 != 1 || jp.NumH2 != 1 || jp.NumH12 != 1) {
			t.Errorf("p=16: H1/H2/H12 = %d/%d/%d, want one of each", jp.NumH1, jp.NumH2, jp.NumH12)
		}
	}
}
