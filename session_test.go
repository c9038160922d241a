package repro

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func sortedTuples(ts []Tuple) []Tuple {
	out := append([]Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func equalTupleSets(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sortedTuples(a), sortedTuples(b)
	for i := range as {
		for k := range as[i] {
			if as[i][k] != bs[i][k] {
				return false
			}
		}
	}
	return true
}

// freshExec evaluates q over db on a new single-use session: the
// independent oracle the serving tests compare a long-lived session against.
func freshExec(p int, seed uint64, q *Query, db *Database, opts ...ExecOption) (Result, error) {
	s, err := Open(Config{P: p, Seed: seed})
	if err != nil {
		return Result{}, err
	}
	defer s.Close()
	return s.Exec(context.Background(), q, db, opts...)
}

func TestOpenValidatesConfig(t *testing.T) {
	if _, err := Open(Config{P: 1}); err == nil {
		t.Error("Open accepted p = 1")
	}
	if _, err := Open(Config{P: 8, ReplanDriftFactor: 0.5}); err == nil {
		t.Error("Open accepted drift factor 0.5")
	}
	if _, err := Open(Config{P: 8}); err != nil {
		t.Errorf("Open rejected a valid config: %v", err)
	}
}

func TestSessionExecErrorsNotPanics(t *testing.T) {
	s, err := Open(Config{P: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 100, 1000, 1))
	// Missing relation S2.
	if _, err := s.Exec(context.Background(), Join2Query(), db); err == nil {
		t.Error("Exec succeeded with a missing relation")
	}
	// Invalid per-call p.
	db.Put(MatchingRelation("S2", 2, 100, 1000, 2))
	if _, err := s.Exec(context.Background(), Join2Query(), db, WithP(1)); err == nil {
		t.Error("Exec accepted p = 1")
	}
	if _, err := s.Exec(context.Background(), Join2Query(), db); err != nil {
		t.Errorf("valid Exec failed: %v", err)
	}
}

func TestSessionExecMatchesEngineAndOptions(t *testing.T) {
	db := NewDatabase()
	db.Put(ZipfRelation("S1", 500, 1<<16, 1, 1.3, 40, 1))
	db.Put(MatchingRelation("S2", 2, 500, 1<<16, 2))
	q := Join2Query()
	oracle, err := freshExec(8, 3, q, db)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Open(Config{P: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(context.Background(), q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTupleSets(res.Output, oracle.Output) {
		t.Fatalf("session answers (%d) differ from engine answers (%d)", len(res.Output), len(oracle.Output))
	}

	// Every forced strategy agrees on answers.
	for _, st := range []Strategy{StrategyHyperCube, StrategySkewJoin, StrategyBinCombination, StrategyMultiRound} {
		r, err := s.Exec(context.Background(), q, db, WithStrategy(st))
		if err != nil {
			t.Fatalf("forced %v: %v", st, err)
		}
		if r.Plan.Strategy != st {
			t.Fatalf("forced %v but plan used %v", st, r.Plan.Strategy)
		}
		if !equalTupleSets(r.Output, oracle.Output) {
			t.Fatalf("forced %v: %d answers, want %d", st, len(r.Output), len(oracle.Output))
		}
	}

	// WithP executes on a different server count, cached separately.
	if r, err := s.Exec(context.Background(), q, db, WithP(4)); err != nil || !equalTupleSets(r.Output, oracle.Output) {
		t.Fatalf("WithP(4): err=%v answers=%d", err, len(r.Output))
	}

	// WithoutCache doesn't grow the cache.
	before := s.CacheStats()
	if _, err := s.Exec(context.Background(), q, db, WithoutCache()); err != nil {
		t.Fatal(err)
	}
	after := s.CacheStats()
	if after.Size != before.Size || after.Misses != before.Misses || after.Hits != before.Hits {
		t.Fatalf("WithoutCache touched the cache: %+v -> %+v", before, after)
	}

	// ConsiderMultiRound lets the pipeline compete on every unforced Exec.
	mr, err := Open(Config{P: 8, Seed: 3, ConsiderMultiRound: true})
	if err != nil {
		t.Fatal(err)
	}
	if r, err := mr.Exec(context.Background(), q, db); err != nil || !equalTupleSets(r.Output, oracle.Output) {
		t.Fatalf("ConsiderMultiRound: err=%v answers=%d", err, len(r.Output))
	}
}

// TestSessionCacheSurvivesApply: plans are keyed by database identity +
// schema, so content deltas keep them hot, and a schema change misses.
func TestSessionCacheSurvivesApply(t *testing.T) {
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 400, 1<<20, 1))
	db.Put(MatchingRelation("S2", 2, 400, 1<<20, 2))
	q := Join2Query()
	s, err := Open(Config{P: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Exec(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(NewDelta().Insert("S1", 1<<19, 1<<19)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("serving cache stats after delta: %+v, want 1 hit / 1 miss", st)
	}
	// The plan ran against the mutated content: answers reflect the delta.
	oracle, err := freshExec(8, 1, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTupleSets(res.Output, oracle.Output) {
		t.Fatalf("post-delta answers (%d) differ from oracle (%d)", len(res.Output), len(oracle.Output))
	}
	// Replacing a relation with a different shape changes the serving key:
	// positional routing would be wrong, so the plan must rebuild.
	db.Put(NewRelation("S2", 2, 1<<21)) // same arity, different domain = new schema
	if _, err := s.Exec(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Misses != 2 {
		t.Fatalf("schema change did not miss: %+v", st)
	}
}

// TestSessionDriftReplan is the adaptive re-planning acceptance test: a
// zipf-style hot value planted after plan caching makes realized load
// exceed the drift threshold, triggering exactly one replan that switches
// to a skew-aware strategy with improved realized load.
func TestSessionDriftReplan(t *testing.T) {
	const p = 16
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 4000, 1<<20, 1))
	db.Put(MatchingRelation("S2", 2, 4000, 1<<20, 2))
	q := Join2Query()
	s, err := Open(Config{P: p, Seed: 1, ReplanDriftFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r1, err := s.Exec(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Plan.Strategy != StrategyHyperCube || r1.Replanned {
		t.Fatalf("initial plan: strategy %v replanned %v", r1.Plan.Strategy, r1.Replanned)
	}
	if r2, _ := s.Exec(ctx, q, db); r2.Replanned {
		t.Fatal("clean repeat replanned")
	}

	// Plant the skew: shift half of S2's join column onto one hot value.
	// (Matching columns hold distinct values, so re-pairing each deleted
	// x with z=7 cannot create duplicates.)
	s2 := db.MustGet("S2")
	d := NewDelta()
	for i := 0; i < 2000; i++ {
		tu := s2.Tuple(i)
		d.Delete("S2", tu...).Insert("S2", tu[0], 7)
	}
	if err := db.Apply(d); err != nil {
		t.Fatal(err)
	}

	// The stale-statistics plan still serves (cache hit), but its realized
	// load now drifts past threshold × prediction, arming the replan.
	r3, err := s.Exec(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Replanned {
		t.Fatal("drifted call itself replanned; marking is for the *next* call")
	}
	if r3.Plan.Strategy != StrategyHyperCube {
		t.Fatalf("drifted call used %v, want the stale hypercube plan", r3.Plan.Strategy)
	}
	if float64(r3.MaxLoadBits) <= 3*r3.Plan.PredictedBits {
		t.Fatalf("planted skew too weak: realized %d vs predicted %.0f", r3.MaxLoadBits, r3.Plan.PredictedBits)
	}

	r4, err := s.Exec(ctx, q, db)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Replanned {
		t.Fatal("no replan after drift marking")
	}
	if r4.Plan.Strategy != StrategySkewJoin {
		t.Fatalf("replanned strategy %v, want skew-join for the planted hitter", r4.Plan.Strategy)
	}
	if r4.MaxLoadBits >= r3.MaxLoadBits {
		t.Fatalf("replan did not improve realized load: %d -> %d", r3.MaxLoadBits, r4.MaxLoadBits)
	}
	if !equalTupleSets(r4.Output, r3.Output) {
		t.Fatal("replan changed the answers")
	}

	// Exactly one replan: content is unchanged since the rebuild, so the
	// drift gate stays closed no matter how many times we execute.
	for i := 0; i < 3; i++ {
		r, err := s.Exec(ctx, q, db)
		if err != nil {
			t.Fatal(err)
		}
		if r.Replanned {
			t.Fatalf("extra replan on call %d", i)
		}
	}
	if st := s.CacheStats(); st.Replans != 1 {
		t.Fatalf("Replans = %d, want exactly 1 (stats: %+v)", st.Replans, st)
	}
}

func TestSessionContextCancellation(t *testing.T) {
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 300, 1<<16, 1))
	db.Put(MatchingRelation("S2", 2, 300, 1<<16, 2))
	db.Put(MatchingRelation("S3", 2, 300, 1<<16, 3))
	s, err := Open(Config{P: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Exec(ctx, TriangleQuery(), db, WithStrategy(StrategyMultiRound)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same call with a live context completes.
	if _, err := s.Exec(context.Background(), TriangleQuery(), db, WithStrategy(StrategyMultiRound)); err != nil {
		t.Fatalf("live context errored: %v", err)
	}
}

// TestSessionConcurrentServing is the serving stress satellite: one
// Session, 9 goroutines mixing Exec (with assorted options), Database.Apply
// deltas, standing-query advances, cache clears, and stats polling under
// the race detector, with answers checked against a fresh-engine oracle
// after every delta and every advance.
func TestSessionConcurrentServing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const p = 8
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 200, 1<<16, 1))
	db.Put(ZipfRelation("S2", 200, 1<<16, 1, 1.2, 30, 2))
	q := Join2Query()
	s, err := Open(Config{P: p, Seed: 5, ReplanDriftFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// applyMu serializes appliers (and their oracle comparison) against
	// each other only — free readers keep hammering Exec concurrently, so
	// Apply's write path vs Exec's snapshot reads is exercised for real.
	var applyMu sync.Mutex
	var wg sync.WaitGroup
	// heavy tracks the oracle-checked goroutines (appliers, advancers); the
	// closer fires Session.Close once they are done, mid-flight for the
	// rest, so every other worker must treat ErrSessionClosed as a clean
	// shutdown signal rather than a failure.
	var heavy sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// 6 free readers with different option mixes.
	readerOpts := [][]ExecOption{
		nil,
		{WithoutCache()},
		{WithStrategy(StrategyHyperCube)},
		{WithP(4)},
		{WithStrategy(StrategySkewJoin)},
		{WithoutCache(), WithP(4)},
	}
	for g := 0; g < len(readerOpts); g++ {
		wg.Add(1)
		go func(opts []ExecOption) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				res, err := s.Exec(ctx, q, db, opts...)
				if errors.Is(err, ErrSessionClosed) {
					return
				}
				if err != nil {
					fail("reader: %v", err)
					return
				}
				for _, tu := range res.Output {
					if len(tu) != 3 {
						fail("reader: answer arity %d", len(tu))
						return
					}
				}
			}
		}(readerOpts[g])
	}

	// 2 appliers: mutate, then verify the session against a fresh engine
	// (fresh = no cache shared with the session) while no other applier
	// can interleave.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		heavy.Add(1)
		go func(id int) {
			defer wg.Done()
			defer heavy.Done()
			for i := 0; i < 10; i++ {
				applyMu.Lock()
				v := int64(60000 + id*1000 + i)
				d := NewDelta().Insert("S1", v, v).Insert("S2", v, v)
				if err := db.Apply(d); err != nil {
					applyMu.Unlock()
					fail("apply: %v", err)
					return
				}
				got, err := s.Exec(ctx, q, db)
				if err != nil {
					applyMu.Unlock()
					fail("post-apply exec: %v", err)
					return
				}
				want, err := freshExec(p, 5, q, db)
				if err != nil {
					applyMu.Unlock()
					fail("oracle exec: %v", err)
					return
				}
				if !equalTupleSets(got.Output, want.Output) {
					applyMu.Unlock()
					fail("post-apply answers: session %d vs oracle %d", len(got.Output), len(want.Output))
					return
				}
				applyMu.Unlock()
			}
		}(g)
	}

	// 2 standing-query advancers with independent handles: each observes
	// the appliers' deltas and survives the cache clearer's invalidations
	// (each forces a reseed). applyMu pins the database between an advance
	// and its fresh-engine oracle so the comparison is against the state
	// the advance saw.
	for g := 0; g < 2; g++ {
		h, err := s.Standing(ctx, q, db)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		wg.Add(1)
		heavy.Add(1)
		go func(h *StandingQuery, n int) {
			defer wg.Done()
			defer heavy.Done()
			for i := 0; i < n; i++ {
				applyMu.Lock()
				if _, err := h.Advance(ctx); err != nil {
					applyMu.Unlock()
					fail("standing advance: %v", err)
					return
				}
				got := h.Result()
				want, err := freshExec(p, 5, q, db)
				if err != nil {
					applyMu.Unlock()
					fail("oracle exec: %v", err)
					return
				}
				if !equalTupleSets(got, want.Output) {
					applyMu.Unlock()
					fail("standing result: %d answers vs oracle %d", len(got), len(want.Output))
					return
				}
				applyMu.Unlock()
			}
		}(h, 15-5*g)
	}

	// 1 cache clearer + 1 cache/pool stats poller + 1 admission poller.
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			s.ClearPlanCache()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.CacheStats()
			_ = s.PoolStats()
			_ = DatabaseFingerprint(db)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			st := s.AdmissionStats()
			if st.InFlight < 0 || st.QueueDepth < 0 {
				fail("admission stats: %+v", st)
				return
			}
		}
	}()

	// 1 closer: once the oracle-checked workers are done, close the session
	// under the remaining readers' feet. Close must drain in-flight Execs
	// and flip the rest to ErrSessionClosed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		heavy.Wait()
		if err := s.Close(); err != nil {
			fail("close: %v", err)
		}
	}()

	wg.Wait()
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := s.Exec(ctx, q, db); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("post-close Exec: %v, want ErrSessionClosed", err)
	}
	// Nothing the session or its handles own may outlive Close.
	spinUntil(t, "goroutines drained after Close", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}
