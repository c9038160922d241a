package repro

import (
	"math"
	"testing"

	"repro/internal/join"
)

// The facade test doubles as the quickstart smoke test: everything a
// downstream user touches first must work through the public API alone.
func TestFacadeEndToEnd(t *testing.T) {
	q := MustParseQuery("C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)")
	db := NewDatabase()
	db.Put(UniformRelation("S1", 2, 500, 60, 1))
	db.Put(UniformRelation("S2", 2, 500, 60, 2))
	db.Put(UniformRelation("S3", 2, 500, 60, 3))

	res, err := freshExec(16, 7, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLoadBits <= 0 {
		t.Error("no load recorded")
	}
	if res.Plan.LowerBoundBits <= 0 {
		t.Error("no lower bound")
	}

	lower, desc := LowerBound(q, db, 16)
	if lower <= 0 || desc == "" {
		t.Error("LowerBound broken")
	}
}

func TestFacadePackingHelpers(t *testing.T) {
	q := TriangleQuery()
	vs := PackingVertices(q)
	if len(vs) != 4 {
		t.Errorf("pk(C3) = %d vertices, want 4", len(vs))
	}
	if math.Abs(Tau(q)-1.5) > 1e-12 {
		t.Errorf("τ*(C3) = %v", Tau(q))
	}
	agm := AGMBound(q, []float64{100, 100, 100})
	if math.Abs(agm-1000) > 1e-6 {
		t.Errorf("AGM = %v, want 1000", agm)
	}
}

func TestFacadeSkewPath(t *testing.T) {
	db := NewDatabase()
	db.Put(SingleValueRelation("S1", 2, 300, 100000, 1, 7, 1))
	db.Put(SingleValueRelation("S2", 2, 300, 100000, 1, 7, 2))
	q := Join2Query()
	for _, s := range []Strategy{StrategySkewJoin, StrategyBinCombination} {
		res, err := Run(q, db, RunConfig{Strategy: s, P: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Strategy != s || len(res.Output) != 300*300 {
			t.Errorf("%v: strategy %v, output = %d, want 90000", s, res.Plan.Strategy, len(res.Output))
		}
	}
}

func TestFacadeBounds(t *testing.T) {
	q := Join2Query()
	bitsM := []float64{1 << 20, 1 << 20}
	simple, table := SimpleLowerBound(q, bitsM, 64)
	if simple <= 0 || len(table) == 0 {
		t.Error("SimpleLowerBound broken")
	}
	eps := SpaceExponent(q, bitsM, 64)
	if eps != 0 { // τ*(join2)=1 ⇒ ε = 0
		t.Errorf("ε = %v, want 0", eps)
	}
	r := ReplicationLowerBound(TriangleQuery(), []float64{1 << 20, 1 << 20, 1 << 20}, 1<<14)
	if r <= 0 {
		t.Error("ReplicationLowerBound broken")
	}
}

func TestFacadeGenerators(t *testing.T) {
	if MatchingRelation("m", 2, 10, 100, 1).Size() != 10 {
		t.Error("MatchingRelation")
	}
	if ZipfRelation("z", 100, 1000, 1, 1.5, 50, 1).Size() != 100 {
		t.Error("ZipfRelation")
	}
	if PlantedHeavyRelation("p", 100, 1000, 1, []HeavySpec{{Value: 3, Count: 40}}, 1).Size() != 100 {
		t.Error("PlantedHeavyRelation")
	}
	if DegreeSequenceRelation("d", 1000, 0, map[int64]int{1: 5}, 1).Size() != 5 {
		t.Error("DegreeSequenceRelation")
	}
	db := DatabaseForQuery([]AtomSpec{{Name: "R", Arity: 1, M: 10, Domain: 100}}, 1)
	if db.MustGet("R").Size() != 10 {
		t.Error("DatabaseForQuery")
	}
}

func TestFacadeMultiRoundPipeline(t *testing.T) {
	q := TriangleQuery()
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 400, 100000, 1))
	db.Put(MatchingRelation("S2", 2, 400, 100000, 2))
	db.Put(MatchingRelation("S3", 2, 400, 100000, 3))

	// Direct execution through the facade: two rounds, a cost prediction.
	res, err := Run(q, db, RunConfig{Strategy: StrategyMultiRound, P: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Rounds != 2 || res.Plan.PredictedBits <= 0 {
		t.Fatalf("rounds = %d, prediction %v; want 2 rounds and a prediction", res.Plan.Rounds, res.Plan.PredictedBits)
	}

	// Same answers as the engine's forced multi-round strategy.
	er, err := freshExec(8, 3, q, db, WithStrategy(StrategyMultiRound))
	if err != nil {
		t.Fatal(err)
	}
	if er.Plan.Strategy != StrategyMultiRound || len(er.Output) != len(res.Output) {
		t.Errorf("engine multi-round: strategy %v, %d tuples vs %d",
			er.Plan.Strategy, len(er.Output), len(res.Output))
	}
}

// TestRunMatchesSessionExec: Run is Session.Exec with the strategy forced
// and the plan cache bypassed — the same plan, answers and loads — for every
// strategy, on a skewed join and a triangle.
func TestRunMatchesSessionExec(t *testing.T) {
	zipf := NewDatabase()
	zipf.Put(ZipfRelation("S1", 1500, 1<<20, 1, 1.4, 300, 1))
	zipf.Put(ZipfRelation("S2", 1500, 1<<20, 1, 1.4, 300, 2))
	tri := NewDatabase()
	for j, name := range []string{"S1", "S2", "S3"} {
		tri.Put(UniformRelation(name, 2, 1500, 200, int64(j+1)))
	}
	for _, tc := range []struct {
		name string
		q    *Query
		db   *Database
	}{{"join2-zipf", Join2Query(), zipf}, {"triangle", TriangleQuery(), tri}} {
		for _, s := range []Strategy{StrategyHyperCube, StrategySkewJoin, StrategyBinCombination, StrategyMultiRound} {
			if s == StrategySkewJoin && tc.q.NumAtoms() != 2 {
				continue // the §4.1 join plans two-atom queries only
			}
			got, err := Run(tc.q, tc.db, RunConfig{Strategy: s, P: 16, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshExec(16, 4, tc.q, tc.db, WithStrategy(s), WithoutCache())
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Output) == 0 {
				t.Fatalf("%s/%v: instance has no answers", tc.name, s)
			}
			if got.Plan.Strategy != s || !join.EqualTupleSets(got.Output, want.Output) {
				t.Errorf("%s/%v: Run %v with %d answers, Exec %d", tc.name, s, got.Plan.Strategy, len(got.Output), len(want.Output))
			}
			if got.MaxLoadBits != want.MaxLoadBits || got.TotalBits != want.TotalBits || got.Plan.PredictedBits != want.Plan.PredictedBits {
				t.Errorf("%s/%v: Run loads %d/%d pred %v, Exec %d/%d pred %v", tc.name, s,
					got.MaxLoadBits, got.TotalBits, got.Plan.PredictedBits,
					want.MaxLoadBits, want.TotalBits, want.Plan.PredictedBits)
			}
		}
	}
}
