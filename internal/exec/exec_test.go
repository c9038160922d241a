package exec

import (
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/workload"
)

func testDB() *data.Database {
	db := data.NewDatabase()
	r := data.NewRelation("S", 2, 16)
	for i := int64(0); i < 8; i++ {
		r.Add(i, (i+1)%16)
	}
	db.Put(r)
	return db
}

// copyS makes every server answer with its own fragment of S.
var copyS = query.MustParse("Q(x,y) :- S(x,y)")

// modRouter sends tuple (a,b) to server a mod p.
func modRouter(p int) mpc.Router {
	return mpc.RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0))%p)
	})
}

func TestRunRoutesComputesAndAccounts(t *testing.T) {
	db := testDB()
	plan := &PhysicalPlan{
		Strategy:  "test",
		Virtual:   4,
		Physical:  2,
		Router:    modRouter(4),
		Relations: []string{"S"},
		Query:     copyS,
	}
	res, _ := Execute(OneRound(plan), db, Config{})
	if len(res.Output) != 8 {
		t.Errorf("output = %d tuples, want 8", len(res.Output))
	}
	if len(res.Rounds[0].PerServerBits) != 4 {
		t.Fatalf("PerServerBits = %d entries, want 4", len(res.Rounds[0].PerServerBits))
	}
	// 8 tuples round-robin over 4 virtual servers: 2 tuples each.
	bpt := db.MustGet("S").BitsPerTuple()
	for id, bits := range res.Rounds[0].PerServerBits {
		if bits != 2*bpt {
			t.Errorf("server %d: %d bits, want %d", id, bits, 2*bpt)
		}
	}
	if res.MaxLoadBits() != 2*bpt {
		t.Errorf("MaxLoadBits = %d, want %d", res.MaxLoadBits(), 2*bpt)
	}
	if res.TotalBits() != 8*bpt {
		t.Errorf("TotalBits = %d, want %d", res.TotalBits(), 8*bpt)
	}
}

func TestRunSkipCompute(t *testing.T) {
	db := testDB()
	plan := &PhysicalPlan{
		Strategy:  "test",
		Virtual:   2,
		Physical:  2,
		Router:    modRouter(2),
		Relations: []string{"S"},
		Query:     copyS,
	}
	res, _ := Execute(OneRound(plan), db, Config{SkipCompute: true})
	if len(res.Output) != 0 {
		t.Error("output non-empty despite SkipCompute")
	}
	if res.MaxLoadBits() == 0 {
		t.Error("loads not accounted under SkipCompute")
	}
}

func TestRunDedup(t *testing.T) {
	db := testDB()
	plan := &PhysicalPlan{
		Strategy: "test",
		Virtual:  3,
		Physical: 3,
		// Broadcast: every server holds every tuple, so without Dedup the
		// output would triple.
		Router: mpc.RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
			return append(dst, 0, 1, 2)
		}),
		Relations: []string{"S"},
		Query:     copyS,
		Dedup:     true,
	}
	res, _ := Execute(OneRound(plan), db, Config{})
	if len(res.Output) != 8 {
		t.Errorf("deduped output = %d tuples, want 8", len(res.Output))
	}
}

// TestRunGathersArenaAnswersInPlace runs the real local join — one arena
// per server — through the gather and the in-place Dedup: a second run
// returns the same answers in a header array of its own, because an Output
// belongs to its caller and is never pooled.
func TestRunGathersArenaAnswersInPlace(t *testing.T) {
	q := query.Join2()
	db := data.NewDatabase()
	db.Put(workload.Zipf("S1", 60, 128, 1, 1.3, 8, 1))
	db.Put(workload.Zipf("S2", 60, 128, 1, 1.3, 8, 2))
	want := join.Join(q, join.FromDatabase(db))
	plan := &PhysicalPlan{
		Strategy: "test",
		Virtual:  3,
		Physical: 3,
		// Broadcast, so every server computes the whole join and Dedup has
		// two copies of each answer to drop.
		Router: mpc.RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
			return append(dst, 0, 1, 2)
		}),
		Relations: q.AtomNames(),
		Query:     q,
		Dedup:     true,
	}
	r1, _ := Execute(OneRound(plan), db, Config{})
	if !join.EqualTupleSets(r1.Output, want) {
		t.Fatalf("first run: %d answers, want %d", len(r1.Output), len(want))
	}
	first := &r1.Output[0]
	r2, _ := Execute(OneRound(plan), db, Config{})
	if &r2.Output[0] == first {
		t.Error("second run overwrote the first run's Output")
	}
	if !join.EqualTupleSets(r2.Output, want) || !join.EqualTupleSets(r1.Output, want) {
		t.Errorf("after a second run: %d and %d answers, want %d", len(r1.Output), len(r2.Output), len(want))
	}
}

func TestRunPanicsOnBadPlan(t *testing.T) {
	s := []string{"S"}
	for _, plan := range []*PhysicalPlan{
		{Strategy: "bad", Virtual: 0, Physical: 1, Router: modRouter(1), Relations: s, Query: copyS},
		{Strategy: "bad", Virtual: 1, Physical: 0, Router: modRouter(1), Relations: s, Query: copyS},
		// Router emits an out-of-range destination.
		{Strategy: "bad", Virtual: 1, Physical: 1, Router: modRouter(5), Relations: s, Query: copyS},
		// No local phase: a one-round plan joins its Query.
		{Strategy: "bad", Virtual: 1, Physical: 1, Router: modRouter(1), Relations: s},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("plan %+v: expected panic", plan)
				}
			}()
			Execute(OneRound(plan), testDB(), Config{})
		}()
	}
}

// pipelineStage builds a test stage: route S by column 0 mod v, then keep each
// server's fragment under outName with +1 applied to column 0.
func incStage(in string, out string, v int) Stage {
	return Stage{
		Plan: &PhysicalPlan{
			Strategy: "test", Virtual: v, Physical: 2,
			Router: mpc.RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
				return append(dst, int(rel.At(row, 0))%v)
			}),
		},
		LocalFragment: func(s *mpc.Server) *data.Relation {
			f := s.Fragment(in)
			if f == nil || f.Size() == 0 {
				return nil
			}
			o := data.NewRelation(out, f.Arity, f.Domain)
			for i := 0; i < f.Size(); i++ {
				o.Add(f.At(i, 0)+1, f.At(i, 1))
			}
			return o
		},
		OutName: out, OutArity: 2, OutDomain: 16,
	}
}

func TestRunPipelineResidentIntermediates(t *testing.T) {
	db := testDB() // S: (i, (i+1)%16) for i in 0..7, domain 16
	pl := &Pipeline{
		Strategy: "test",
		Physical: 2,
		Stages:   []Stage{incStage("S", "t1", 4), incStage("t1", "t2", 3)},
	}
	pl.Stages[0].Base = []string{"S"}
	pl.Stages[1].Resident = []string{"t1"}
	res, _ := Execute(pl, db, Config{})
	// Both stages increment column 0: output is (i+2, (i+1)%16).
	if len(res.Output) != 8 {
		t.Fatalf("output = %d tuples, want 8", len(res.Output))
	}
	seen := make(map[int64]int64)
	for _, a := range res.Output {
		seen[a[0]] = a[1]
	}
	for i := int64(0); i < 8; i++ {
		if got, ok := seen[i+2]; !ok || got != (i+1)%16 {
			t.Errorf("output missing (%d,%d); got %v", i+2, (i+1)%16, seen)
		}
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(res.Rounds))
	}
	// Stage 2's input arrived server-to-server, never via the coordinator:
	// the intermediate is counted resident and never entered the database.
	if res.Rounds[1].ResidentTuples != 8 {
		t.Errorf("round 2 resident tuples = %d, want 8", res.Rounds[1].ResidentTuples)
	}
	if db.Get("t1") != nil || db.Get("t2") != nil {
		t.Error("pipeline intermediates round-tripped through the database")
	}
	// Per-round load deltas: each round delivered all 8 tuples exactly once.
	bpt := db.MustGet("S").BitsPerTuple()
	for i, rl := range res.Rounds {
		if rl.TotalBits != 8*bpt {
			t.Errorf("round %d TotalBits = %d, want %d", i, rl.TotalBits, 8*bpt)
		}
		if rl.Intermediate != 8 {
			t.Errorf("round %d intermediate = %d, want 8", i, rl.Intermediate)
		}
	}
	if res.MaxLoadBits() != res.Rounds[0].MaxBits+res.Rounds[1].MaxBits {
		t.Error("MaxLoadBits is not the sum of per-round maxima")
	}
}

// TestRunPipelineEmptyOutput: a resident output no server holds is no
// answers, and the round that routed its input is still accounted.
func TestRunPipelineEmptyOutput(t *testing.T) {
	db := testDB()
	st := incStage("S", "t1", 4)
	st.Base = []string{"S"}
	st.LocalFragment = func(s *mpc.Server) *data.Relation { return nil }
	pl := &Pipeline{Strategy: "test", Physical: 2, Stages: []Stage{st}}
	res, _ := Execute(pl, db, Config{})
	if res.Output != nil || len(res.Rounds) != 1 || res.Rounds[0].TotalTuples != 8 {
		t.Errorf("empty pipeline output: %d answers, rounds %+v", len(res.Output), res.Rounds)
	}
}

func TestRunPipelinePanicsOnBadStages(t *testing.T) {
	db := testDB()
	good := incStage("S", "t1", 4)
	good.Base = []string{"S"}
	for name, pl := range map[string]*Pipeline{
		"no stages, no input": {Strategy: "bad", Physical: 2},
		"no physical":         {Strategy: "bad", Physical: 0, Stages: []Stage{good}},
		"no local": {Strategy: "bad", Physical: 2, Stages: []Stage{{
			Plan: good.Plan, Base: []string{"S"}, OutName: "t1", OutArity: 2, OutDomain: 16,
		}}},
		// A stage whose answers are gathered must be the last.
		"gather before the last stage": {Strategy: "bad", Physical: 2, Stages: []Stage{
			{Plan: &PhysicalPlan{Strategy: "bad", Virtual: 4, Physical: 2, Router: modRouter(4), Query: copyS}, Base: []string{"S"}},
			good,
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Execute(pl, db, Config{})
		}()
	}
}
