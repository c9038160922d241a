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
		Strategy: "test",
		Virtual:  4,
		Physical: 2,
		Router:   modRouter(4),
		Query:    copyS,
	}
	res, _ := Run(plan, db, Config{})
	if len(res.Output) != 8 {
		t.Errorf("output = %d tuples, want 8", len(res.Output))
	}
	if len(res.PerServerBits) != 4 {
		t.Fatalf("PerServerBits = %d entries, want 4", len(res.PerServerBits))
	}
	// 8 tuples round-robin over 4 virtual servers: 2 tuples each.
	bpt := db.MustGet("S").BitsPerTuple()
	for id, bits := range res.PerServerBits {
		if bits != 2*bpt {
			t.Errorf("server %d: %d bits, want %d", id, bits, 2*bpt)
		}
	}
	if res.MaxVirtualBits != 2*bpt {
		t.Errorf("MaxVirtualBits = %d, want %d", res.MaxVirtualBits, 2*bpt)
	}
	// Virtual 0,2 → physical 0; 1,3 → physical 1: 4 tuples per machine.
	if res.MaxPhysicalBits != 4*bpt {
		t.Errorf("MaxPhysicalBits = %d, want %d", res.MaxPhysicalBits, 4*bpt)
	}
	if res.Loads.TotalBits != 8*bpt {
		t.Errorf("TotalBits = %d, want %d", res.Loads.TotalBits, 8*bpt)
	}
	if res.Loads.Replication < 0.99 || res.Loads.Replication > 1.01 {
		t.Errorf("Replication = %f, want 1", res.Loads.Replication)
	}
}

func TestRunSkipCompute(t *testing.T) {
	db := testDB()
	plan := &PhysicalPlan{
		Strategy: "test",
		Virtual:  2,
		Physical: 2,
		Router:   modRouter(2),
		Query:    copyS,
	}
	res, _ := Run(plan, db, Config{SkipCompute: true})
	if len(res.Output) != 0 {
		t.Error("output non-empty despite SkipCompute")
	}
	if res.MaxVirtualBits == 0 {
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
		Query: copyS,
		Dedup: true,
	}
	res, _ := Run(plan, db, Config{})
	if len(res.Output) != 8 {
		t.Errorf("deduped output = %d tuples, want 8", len(res.Output))
	}
}

// TestRunGathersArenaAnswersInPlace runs the real local join — one arena
// per server — through the gather and the in-place Dedup: a second run over
// the same scratch returns the same answers in a header array of its own,
// because an Output belongs to its caller and is never pooled.
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
		Query: q,
		Dedup: true,
	}
	sc := new(Scratch)
	r1, _ := Run(plan, db, Config{Scratch: sc})
	if !join.EqualTupleSets(r1.Output, want) {
		t.Fatalf("first run: %d answers, want %d", len(r1.Output), len(want))
	}
	first := &r1.Output[0]
	r2, _ := Run(plan, db, Config{Scratch: sc})
	if &r2.Output[0] == first {
		t.Error("second run over the same scratch overwrote the first run's Output")
	}
	if !join.EqualTupleSets(r2.Output, want) || !join.EqualTupleSets(r1.Output, want) {
		t.Errorf("after a second run over the same scratch: %d and %d answers, want %d", len(r1.Output), len(r2.Output), len(want))
	}
}

func TestRunPanicsOnBadPlan(t *testing.T) {
	for _, plan := range []*PhysicalPlan{
		{Strategy: "bad", Virtual: 0, Physical: 1, Router: modRouter(1)},
		{Strategy: "bad", Virtual: 1, Physical: 0, Router: modRouter(1)},
		// Router emits an out-of-range destination.
		{Strategy: "bad", Virtual: 1, Physical: 1, Router: modRouter(5)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("plan %+v: expected panic", plan)
				}
			}()
			Run(plan, testDB(), Config{})
		}()
	}
}

func TestRunScratchReuse(t *testing.T) {
	db := testDB()
	plan := &PhysicalPlan{
		Strategy: "test",
		Virtual:  4,
		Physical: 2,
		Router:   modRouter(4),
	}
	sc := new(Scratch)
	r1, _ := Run(plan, db, Config{Scratch: sc})
	first := &r1.PerServerBits[0]
	want := append([]int64(nil), r1.PerServerBits...)
	r2, _ := Run(plan, db, Config{Scratch: sc})
	if &r2.PerServerBits[0] != first {
		t.Error("scratch-backed PerServerBits was reallocated on the second run")
	}
	for i, b := range r2.PerServerBits {
		if b != want[i] {
			t.Errorf("server %d: %d bits on rerun, want %d", i, b, want[i])
		}
	}
	// A smaller plan reuses the same backing array, zeroed.
	small := &PhysicalPlan{Strategy: "test", Virtual: 2, Physical: 2, Router: modRouter(2)}
	r3, _ := Run(small, db, Config{Scratch: sc})
	if len(r3.PerServerBits) != 2 {
		t.Fatalf("PerServerBits = %d entries, want 2", len(r3.PerServerBits))
	}
	if r3.MaxVirtualBits == 0 {
		t.Error("loads missing after scratch reuse on a smaller plan")
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
	res, _ := RunPipeline(pl, db, Config{})
	// Both stages increment column 0: output is (i+2, (i+1)%16).
	if res.Output.Size() != 8 {
		t.Fatalf("output = %d tuples, want 8", res.Output.Size())
	}
	seen := make(map[int64]int64)
	for i := 0; i < 8; i++ {
		seen[res.Output.At(i, 0)] = res.Output.At(i, 1)
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
	if res.SumMaxBits != res.Rounds[0].MaxBits+res.Rounds[1].MaxBits {
		t.Error("SumMaxBits is not the sum of per-round maxima")
	}
}

func TestRunPipelineEmptyOutputTyped(t *testing.T) {
	db := testDB()
	st := incStage("S", "t1", 4)
	st.Base = []string{"S"}
	st.LocalFragment = func(s *mpc.Server) *data.Relation { return nil }
	pl := &Pipeline{Strategy: "test", Physical: 2, Stages: []Stage{st}}
	res, _ := RunPipeline(pl, db, Config{})
	if res.Output == nil || res.Output.Size() != 0 || res.Output.Arity != 2 {
		t.Errorf("empty pipeline output not typed: %+v", res.Output)
	}
}

func TestRunPipelinePanicsOnBadStages(t *testing.T) {
	db := testDB()
	good := incStage("S", "t1", 4)
	good.Base = []string{"S"}
	for name, pl := range map[string]*Pipeline{
		"no stages":   {Strategy: "bad", Physical: 2},
		"no physical": {Strategy: "bad", Physical: 0, Stages: []Stage{good}},
		"no local": {Strategy: "bad", Physical: 2, Stages: []Stage{{
			Plan: good.Plan, Base: []string{"S"}, OutName: "t1", OutArity: 2, OutDomain: 16,
		}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			RunPipeline(pl, db, Config{})
		}()
	}
}
