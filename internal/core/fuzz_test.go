package core

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
)

// randomInstance generates a small random instance for q, with occasional
// planted skew so both code paths of every algorithm are exercised.
func randomInstance(q *query.Query, rng *rand.Rand) *data.Database {
	db := data.NewDatabase()
	const domain = 8 // dense: plenty of matches and repeated values
	for _, a := range q.Atoms {
		r := data.NewRelation(a.Name, a.Arity(), domain)
		seen := make(map[string]bool)
		n := 4 + rng.Intn(20)
		hot := int64(rng.Intn(domain)) // a value to overuse sometimes
		for i := 0; i < n; i++ {
			t := make(data.Tuple, a.Arity())
			for j := range t {
				if rng.Intn(3) == 0 {
					t[j] = hot
				} else {
					t[j] = int64(rng.Intn(domain))
				}
			}
			if !seen[t.Key()] {
				seen[t.Key()] = true
				r.Add(t...)
			}
		}
		db.Put(r)
	}
	return db
}

// TestFuzzAllAlgorithmsAgree cross-checks every evaluation strategy on
// random queries and random (often skewed) instances against the
// independent nested-loop reference. This is the repository's strongest
// correctness gate.
func TestFuzzAllAlgorithmsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is integration-scale")
	}
	rng := rand.New(rand.NewSource(2014))
	trials := 150
	for trial := 0; trial < trials; trial++ {
		q := query.Random(rng, 4, 3)
		db := randomInstance(q, rng)
		want := join.NestedLoop(q, join.FromDatabase(db))
		want = join.Dedup(want)

		// HyperCube with LP shares.
		hc := runPhys(t, hypercube.BuildPlan(q, db, hypercube.Config{P: 8, Seed: uint64(trial)}).Phys, db, false)
		if !join.EqualTupleSets(hc.Output, want) {
			t.Fatalf("trial %d %s: hypercube %d vs reference %d tuples",
				trial, q, len(hc.Output), len(want))
		}
		// HyperCube with equal shares (skew-resilient mode).
		eq := runPhys(t, hypercube.BuildPlan(q, db, hypercube.Config{P: 8, Seed: uint64(trial), EqualShares: true}).Phys, db, false)
		if !join.EqualTupleSets(eq.Output, want) {
			t.Fatalf("trial %d %s: equal-share HC %d vs %d",
				trial, q, len(eq.Output), len(want))
		}
		// General bin-combination algorithm.
		gen := runPhys(t, skew.PlanGeneral(q, db, skew.GeneralConfig{P: 8, Seed: uint64(trial)}).Phys, db, false)
		if !join.EqualTupleSets(gen.Output, want) {
			t.Fatalf("trial %d %s: bin-combination %d vs %d",
				trial, q, len(gen.Output), len(want))
		}
		// Multi-round plan.
		mr := runPipeline(t, rounds.PlanPipeline(q, db, rounds.Config{P: 8, Seed: uint64(trial)}), db)
		if !join.EqualTupleSets(mr, want) {
			t.Fatalf("trial %d %s: multi-round %d vs %d",
				trial, q, len(mr), len(want))
		}
		// Skew-aware multi-round.
		mrs := runPipeline(t, rounds.PlanPipeline(q, db, rounds.Config{P: 8, Seed: uint64(trial), SkewAware: true}), db)
		if !join.EqualTupleSets(mrs, want) {
			t.Fatalf("trial %d %s: skew-aware multi-round %d vs %d",
				trial, q, len(mrs), len(want))
		}
		// The engine's own choice.
		cfg := Config{P: 8, Seed: uint64(trial)}
		res := execute(t, newEngine(t, cfg), q, db, ExecOptions{})
		if !join.EqualTupleSets(join.Dedup(res.Output), want) {
			t.Fatalf("trial %d %s: engine(%v) %d vs %d",
				trial, q, res.Plan.Strategy, len(res.Output), len(want))
		}
		// The engine's multi-round pipeline, forced: must agree with every
		// one-round strategy through the plan cache and exec.RunPipeline.
		force := MultiRound
		fres := execute(t, newEngine(t, cfg), q, db, ExecOptions{Strategy: &force})
		if fres.Plan.Strategy != MultiRound {
			t.Fatalf("trial %d %s: forced multi-round ignored (%v)", trial, q, fres.Plan.Strategy)
		}
		if !join.EqualTupleSets(fres.Output, want) {
			t.Fatalf("trial %d %s: engine multi-round %d vs %d",
				trial, q, len(fres.Output), len(want))
		}
		// Cost-comparing engine: whichever strategy the comparison picks,
		// answers must match the reference.
		cfg.ConsiderMultiRound = true
		cres := execute(t, newEngine(t, cfg), q, db, ExecOptions{})
		if !join.EqualTupleSets(join.Dedup(cres.Output), want) {
			t.Fatalf("trial %d %s: cost-comparing engine(%v) %d vs %d",
				trial, q, cres.Plan.Strategy, len(cres.Output), len(want))
		}
	}
}
