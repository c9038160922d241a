package core

import (
	"testing"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/workload"
)

// TestNoAlgorithmBeatsTheLowerBound is the theory-consistency gate: on a
// matrix of instances, every one-round algorithm's max virtual load must
// be at least a constant fraction of L_lower (Theorems 3.5/4.7 hold with
// constant c < 1, so we allow slack 1/4). An algorithm "beating" the
// bound by more would indicate either a broken bound calculator or an
// algorithm that silently drops answers.
func TestNoAlgorithmBeatsTheLowerBound(t *testing.T) {
	const slack = 0.25
	type instance struct {
		name string
		q    *query.Query
		db   *data.Database
	}
	mk := func(name string, q *query.Query, gen func(j int, a query.Atom) *data.Relation) instance {
		db := data.NewDatabase()
		for j, a := range q.Atoms {
			db.Put(gen(j, a))
		}
		return instance{name, q, db}
	}
	m := 2048
	instances := []instance{
		mk("join2-matching", query.Join2(), func(j int, a query.Atom) *data.Relation {
			return workload.Matching(a.Name, 2, m, 1<<20, int64(j+1))
		}),
		mk("join2-single-z", query.Join2(), func(j int, a query.Atom) *data.Relation {
			return workload.SingleValue(a.Name, 2, m, 1<<20, 1, 7, int64(j+1))
		}),
		mk("join2-zipf", query.Join2(), func(j int, a query.Atom) *data.Relation {
			return workload.Zipf(a.Name, m, 1<<20, 1, 1.7, uint64(m/8), int64(j+1))
		}),
		mk("triangle-matching", query.Triangle(), func(j int, a query.Atom) *data.Relation {
			return workload.Matching(a.Name, 2, m, 1<<20, int64(j+1))
		}),
		mk("star2-heavy-center", query.Star(2), func(j int, a query.Atom) *data.Relation {
			return workload.PlantedHeavy(a.Name, m, 1<<20, 0,
				[]workload.HeavySpec{{Value: 5, Count: m / 4}}, int64(j+1))
		}),
	}
	p := 16
	for _, inst := range instances {
		lower, witness := bounds.BestLower(inst.q, inst.db, p, 0)
		if lower <= 0 {
			t.Fatalf("%s: no lower bound", inst.name)
		}
		check := func(alg string, load int64) {
			if float64(load) < slack*lower {
				t.Errorf("%s/%s: load %d below %.0f×lower bound %.0f (%s)",
					inst.name, alg, load, slack, lower, witness)
			}
		}
		hc := hypercube.BuildPlan(inst.q, inst.db, hypercube.Config{P: p, Seed: 1})
		check("hypercube-LP", runPhys(t, hc.Phys, inst.db, true).MaxLoadBits())
		eq := hypercube.BuildPlan(inst.q, inst.db, hypercube.Config{P: p, Seed: 1, Shares: hypercube.EqualShares(inst.q.NumVars(), p)})
		check("hypercube-equal", runPhys(t, eq.Phys, inst.db, true).MaxLoadBits())
		gen := skew.PlanGeneral(inst.q, inst.db, skew.GeneralConfig{P: p, Seed: 1})
		check("bin-combination", runPhys(t, gen.Phys, inst.db, true).MaxLoadBits())
		if inst.q.NumAtoms() == 2 && inst.q.NumVars() == 3 && inst.q.AtomIndex("S1") == 0 {
			sj := skew.PlanJoin(inst.q, inst.db, skew.JoinConfig{P: p, Seed: 1})
			check("skew-join", runPhys(t, sj.Phys, inst.db, true).MaxLoadBits())
		}
	}
}
