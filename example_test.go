package repro_test

import (
	"context"
	"errors"
	"fmt"

	"repro"
)

// The paper's running example: evaluate a two-relation join in one MPC
// round, letting the engine pick the algorithm from statistics.
func Example_quickstart() {
	q := repro.MustParseQuery("q(x,y,z) = S1(x,z), S2(y,z)")
	db := repro.NewDatabase()
	db.Put(repro.MatchingRelation("S1", 2, 1000, 1<<20, 1))
	db.Put(repro.MatchingRelation("S2", 2, 1000, 1<<20, 2))

	s, err := repro.Open(repro.Config{P: 16, Seed: 42})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	res, err := s.Exec(context.Background(), q, db)
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", res.Plan.Strategy)
	fmt.Println("shares:", res.Plan.Shares)
	// Output:
	// strategy: hypercube
	// shares: [1 1 16]
}

// The serving API: Open validates configuration, Exec takes a context and
// per-call options, and the plan cache keys on database identity — so
// Database.Apply deltas keep cached plans hot.
func ExampleOpen() {
	db := repro.NewDatabase()
	db.Put(repro.MatchingRelation("S1", 2, 1000, 1<<20, 1))
	db.Put(repro.MatchingRelation("S2", 2, 1000, 1<<20, 2))

	s, err := repro.Open(repro.Config{P: 16, Seed: 42, ReplanDriftFactor: 2})
	if err != nil {
		panic(err)
	}
	q := repro.MustParseQuery("q(x,y,z) = S1(x,z), S2(y,z)")
	res, err := s.Exec(context.Background(), q, db)
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", res.Plan.Strategy)

	// Mutate the database under the live plan cache: the next Exec still
	// hits (content is not part of the serving cache key), and adaptive
	// re-planning only kicks in when realized load drifts past the
	// configured factor.
	if err := db.Apply(repro.NewDelta().Insert("S1", 7, 7).Insert("S2", 8, 7)); err != nil {
		panic(err)
	}
	res, err = s.Exec(context.Background(), q, db)
	if err != nil {
		panic(err)
	}
	st := s.CacheStats()
	fmt.Println("hits:", st.Hits, "misses:", st.Misses, "replanned:", res.Replanned)
	// Output:
	// strategy: hypercube
	// hits: 1 misses: 1 replanned: false
}

// Per-call options override the session configuration without mutating
// shared state: force a strategy, change p, or bypass the plan cache.
func ExampleSession_Exec_options() {
	db := repro.NewDatabase()
	db.Put(repro.MatchingRelation("S1", 2, 500, 1<<20, 1))
	db.Put(repro.MatchingRelation("S2", 2, 500, 1<<20, 2))
	s, err := repro.Open(repro.Config{P: 16, Seed: 7})
	if err != nil {
		panic(err)
	}
	q := repro.MustParseQuery("q(x,y,z) = S1(x,z), S2(y,z)")

	forced, err := s.Exec(context.Background(), q, db,
		repro.WithStrategy(repro.StrategySkewJoin), repro.WithP(8), repro.WithoutCache())
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", forced.Plan.Strategy)
	fmt.Println("cached plans:", s.CacheStats().Size)
	// Output:
	// strategy: skew-join
	// cached plans: 0
}

// A standing query advances by routing only the applied delta tuples
// through the frozen plan into resident per-server state — inserts derive
// new answers, deletes retract exactly.
func ExampleSession_Standing() {
	db := repro.NewDatabase()
	db.Put(repro.MatchingRelation("S1", 2, 1000, 1<<20, 1))
	db.Put(repro.MatchingRelation("S2", 2, 1000, 1<<20, 2))
	s, err := repro.Open(repro.Config{P: 16, Seed: 42})
	if err != nil {
		panic(err)
	}
	q := repro.MustParseQuery("q(x,y,z) = S1(x,z), S2(y,z)")

	h, err := s.Standing(context.Background(), q, db)
	if err != nil {
		panic(err)
	}
	defer h.Close()
	before := len(h.Result())

	// Two matched inserts on a fresh in-domain join value create one new answer.
	z := int64(1<<20 - 1)
	if err := db.Apply(repro.NewDelta().Insert("S1", 7, z).Insert("S2", 8, z)); err != nil {
		panic(err)
	}
	rd, err := h.Advance(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("added:", len(rd.Added), "removed:", len(rd.Removed))
	fmt.Println("result grew by:", len(h.Result())-before)

	// Deleting one side retracts the answer it derived.
	if err := db.Apply(repro.NewDelta().Delete("S1", 7, z)); err != nil {
		panic(err)
	}
	rd, err = h.Advance(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("added:", len(rd.Added), "removed:", len(rd.Removed))
	fmt.Println("reseeds:", h.Stats().Reseeds)
	// Output:
	// added: 1 removed: 0
	// result grew by: 1
	// added: 0 removed: 1
	// reseeds: 0
}

// Admission control under overload: a session bounds in-flight executions
// and sheds the excess with a typed error callers can branch on. The
// injected straggler parks the first call mid-round — deterministically,
// no timing involved — so the second call finds the session saturated.
func ExampleSession_Exec_overload() {
	db := repro.NewDatabase()
	db.Put(repro.MatchingRelation("S1", 2, 400, 1<<20, 1))
	db.Put(repro.MatchingRelation("S2", 2, 400, 1<<20, 2))
	q := repro.MustParseQuery("q(x,y,z) = S1(x,z), S2(y,z)")

	parked := make(chan struct{}, 64)
	release := make(chan struct{})
	s, err := repro.Open(repro.Config{
		P:           8,
		Seed:        42,
		MaxInFlight: 1,  // one execution at a time
		MaxQueue:    -1, // no wait queue: shed immediately at capacity
		Faults: &repro.Faults{Seed: 1, Straggler: 1, OnStraggle: func() {
			select {
			case parked <- struct{}{}:
			default:
			}
			<-release
		}},
	})
	if err != nil {
		panic(err)
	}
	defer s.Close()

	done := make(chan error, 1)
	go func() {
		_, execErr := s.Exec(context.Background(), q, db)
		done <- execErr
	}()
	<-parked // the first call now holds the only slot, parked mid-round

	_, err = s.Exec(context.Background(), q, db)
	fmt.Println("second call shed:", errors.Is(err, repro.ErrOverloaded))

	close(release) // un-park the first call; it finishes normally
	fmt.Println("first call error:", <-done)
	st := s.AdmissionStats()
	fmt.Println("admitted:", st.Admitted, "shed:", st.Shed)
	// Output:
	// second call shed: true
	// first call error: <nil>
	// admitted: 1 shed: 1
}

// Fault recovery is round-granular: a torn round is replayed in place
// under Config.Retry's attempt budget instead of failing the execution,
// and Result.Recovery reports what the run consumed. The schedule is
// seeded and the Would* predicates are pure, so a seed whose round 1
// tears once and then heals can be picked deterministically up front.
func ExampleSession_Exec_retry() {
	var seed uint64
	for {
		f := &repro.Faults{Seed: seed, TornRound: 0.5}
		if f.WouldTearRoundAttempt(1, 1) && !f.WouldTearRoundAttempt(1, 2) {
			break
		}
		seed++
	}

	db := repro.NewDatabase()
	db.Put(repro.MatchingRelation("S1", 2, 1000, 1<<20, 1))
	db.Put(repro.MatchingRelation("S2", 2, 1000, 1<<20, 2))
	s, err := repro.Open(repro.Config{
		P:      8,
		Seed:   42,
		Faults: &repro.Faults{Seed: seed, TornRound: 0.5},
		// Default budget (three attempts), backoff waits disabled so the
		// example spends no wall-clock time sleeping.
		Retry: repro.Retry{BaseBackoff: -1},
	})
	if err != nil {
		panic(err)
	}
	defer s.Close()

	q := repro.MustParseQuery("q(x,y,z) = S1(x,z), S2(y,z)")
	res, err := s.Exec(context.Background(), q, db)
	if err != nil {
		panic(err)
	}
	fmt.Println("attempts:", res.Recovery.Attempts, "rounds replayed:", res.Recovery.RoundsReplayed)
	fmt.Println("breaker:", s.HealthStats().State)
	// Output:
	// attempts: 1 rounds replayed: 1
	// breaker: disabled
}

// Serving sessions adapt the physical layout to skew: the first Exec on a
// skewed instance plans and gives the join column a heavy-partition layout
// (one contiguous run per heavy value); later Execs read snapshots with
// the new layout and bulk-ship whole runs. The layout is a pure physical
// reorder — answers and realized loads are identical either way.
func ExampleSession_Exec_partitioned() {
	q := repro.Join2Query()
	db := repro.NewDatabase()
	db.Put(repro.ZipfRelation("S1", 2000, 1<<20, 1, 1.6, 64, 1))
	db.Put(repro.ZipfRelation("S2", 2000, 1<<20, 1, 1.6, 64, 2))

	s, err := repro.Open(repro.Config{P: 8, Seed: 42})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	ctx := context.Background()

	r1, _ := s.Exec(ctx, q, db, repro.WithStrategy(repro.StrategySkewJoin))
	r2, _ := s.Exec(ctx, q, db, repro.WithStrategy(repro.StrategySkewJoin))

	fmt.Println("answers equal:", len(r1.Output) == len(r2.Output))
	fmt.Println("loads equal:", r1.MaxLoadBits == r2.MaxLoadBits)
	fmt.Println("layout rebuilds:", s.CacheStats().Repartitions)
	// Output:
	// answers equal: true
	// loads equal: true
	// layout rebuilds: 2
}

// pk(C3) is the four-vertex set of Example 3.7.
func ExamplePackingVertices() {
	vs := repro.PackingVertices(repro.TriangleQuery())
	fmt.Println(len(vs), "non-dominated packing vertices")
	// Output:
	// 4 non-dominated packing vertices
}

// τ* of the triangle is 3/2 — the fractional vertex covering number.
func ExampleTau() {
	fmt.Printf("τ*(C3) = %.1f\n", repro.Tau(repro.TriangleQuery()))
	fmt.Printf("τ*(C4) = %.1f\n", repro.Tau(repro.CycleQuery(4)))
	// Output:
	// τ*(C3) = 1.5
	// τ*(C4) = 2.0
}

// The AGM bound for the triangle with equal cardinalities m is m^{3/2}.
func ExampleAGMBound() {
	fmt.Printf("%.0f\n", repro.AGMBound(repro.TriangleQuery(), []float64{100, 100, 100}))
	// Output:
	// 1000
}

// Parsing accepts both "=" and ":-" separators.
func ExampleParseQuery() {
	q, err := repro.ParseQuery("C3(x,y,z) :- S1(x,y), S2(y,z), S3(z,x)")
	if err != nil {
		panic(err)
	}
	fmt.Println(q.NumVars(), "variables,", q.NumAtoms(), "atoms")
	// Output:
	// 3 variables, 3 atoms
}

// Run executes one strategy directly, without a session. On a fully skewed
// join — every tuple shares one z value — the §4.1 skew join spreads the
// hitter over a grid, while the standard hash join (HyperCube shares
// (1, 1, p)) ships every tuple to one server. Both produce the full
// cartesian product of the matching sides.
func ExampleRun() {
	db := repro.NewDatabase()
	db.Put(repro.SingleValueRelation("S1", 2, 100, 1<<20, 1, 7, 1))
	db.Put(repro.SingleValueRelation("S2", 2, 100, 1<<20, 1, 7, 2))
	q := repro.Join2Query()
	sj, err := repro.Run(q, db, repro.RunConfig{Strategy: repro.StrategySkewJoin, P: 16, Seed: 3})
	if err != nil {
		panic(err)
	}
	hash, err := repro.Run(q, db, repro.RunConfig{Strategy: repro.StrategyHyperCube, P: 16, Seed: 3, Shares: []int{1, 1, 16}})
	if err != nil {
		panic(err)
	}
	fmt.Println("answers:", len(sj.Output), len(hash.Output))
	fmt.Println("skew join max load:", sj.MaxLoadBits, "bits")
	fmt.Println("hash join max load:", hash.MaxLoadBits, "bits")
	// Output:
	// answers: 10000 10000
	// skew join max load: 2160 bits
	// hash join max load: 8000 bits
}

// Lower bounds react to skew: with a shared heavy hitter the residual
// bound of Theorem 4.7 exceeds the cardinality-only bound.
func ExampleLowerBound() {
	db := repro.NewDatabase()
	db.Put(repro.SingleValueRelation("S1", 2, 1024, 1<<20, 1, 7, 1))
	db.Put(repro.SingleValueRelation("S2", 2, 1024, 1<<20, 1, 7, 2))
	_, witness := repro.LowerBound(repro.Join2Query(), db, 16)
	fmt.Println("winning bound:", witness)
	// Output:
	// winning bound: residual x=[2]
}
