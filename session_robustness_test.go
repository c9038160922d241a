package repro

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// spinUntil yields (never sleeps) until cond holds or a bounded number of
// yields elapses.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5_000_000; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("condition never held: %s", what)
}

// driftingSession reproduces TestSessionDriftReplan's setup: a hypercube
// plan whose statistics a planted hot value then invalidates.
func driftingSession(t *testing.T, cfg Config) (*Session, *Query, *Database) {
	t.Helper()
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 4000, 1<<20, 1))
	db.Put(MatchingRelation("S2", 2, 4000, 1<<20, 2))
	q := Join2Query()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, q, db
}

func plantSkew(t *testing.T, db *Database) {
	t.Helper()
	s2 := db.MustGet("S2")
	d := NewDelta()
	for i := 0; i < 2000; i++ {
		tu := s2.Tuple(i)
		d.Delete("S2", tu...).Insert("S2", tu[0], 7)
	}
	if err := db.Apply(d); err != nil {
		t.Fatal(err)
	}
}

// TestSessionConcurrentStaleExec races Execs on an entry drift marked
// stale: exactly one of them replans, the rest hit the rebuilt entry or
// plan a redundant miss, and every answer matches the oracle.
func TestSessionConcurrentStaleExec(t *testing.T) {
	s, q, db := driftingSession(t, Config{P: 16, Seed: 1, ReplanDriftFactor: 3})
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Exec(ctx, q, db); err != nil {
		t.Fatal(err)
	}
	plantSkew(t, db)
	oracle, err := freshExec(16, 1, q, db)
	if err != nil {
		t.Fatal(err)
	}
	// The drifted call serves the stale plan and marks the entry.
	if r, err := s.Exec(ctx, q, db); err != nil || r.Replanned {
		t.Fatalf("drifted call: err=%v replanned=%v", err, r.Replanned)
	}

	const workers = 8
	results := make([]Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = s.Exec(ctx, q, db)
		}()
	}
	wg.Wait()
	replanned := 0
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("exec %d: %v", i, errs[i])
		}
		if r.Replanned {
			replanned++
		}
		if !equalTupleSets(r.Output, oracle.Output) {
			t.Fatalf("exec %d: %d answers, want %d", i, len(r.Output), len(oracle.Output))
		}
	}
	if replanned != 1 {
		t.Fatalf("%d executions report Replanned, want 1", replanned)
	}
	if st := s.CacheStats(); st.Replans != 1 {
		t.Fatalf("Replans = %d, want 1 (stats: %+v)", st.Replans, st)
	}
}

func TestSessionOverloadShed(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 64)
	f := &Faults{Seed: 1, Straggler: 1, OnStraggle: func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}}
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 400, 1<<20, 1))
	db.Put(MatchingRelation("S2", 2, 400, 1<<20, 2))
	q := Join2Query()
	s, err := Open(Config{P: 8, Seed: 1, MaxInFlight: 1, MaxQueue: -1, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	first := make(chan error, 1)
	go func() {
		_, err := s.Exec(ctx, q, db)
		first <- err
	}()
	// The first call is mid-round, parked in the straggle hook with the only
	// slot held.
	<-entered
	if st := s.AdmissionStats(); st.InFlight != 1 {
		t.Fatalf("InFlight = %d with a call parked mid-round", st.InFlight)
	}

	// No queue: the second call sheds immediately with the typed error.
	if _, err := s.Exec(ctx, q, db); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second Exec: %v, want ErrOverloaded", err)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("parked Exec after release: %v", err)
	}
	st := s.AdmissionStats()
	if st.Admitted != 1 || st.Shed != 1 || st.InFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSessionCloseMidFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()

	release := make(chan struct{})
	entered := make(chan struct{}, 64)
	f := &Faults{Seed: 1, Straggler: 1, OnStraggle: func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}}
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 400, 1<<20, 1))
	db.Put(MatchingRelation("S2", 2, 400, 1<<20, 2))
	q := Join2Query()
	s, err := Open(Config{P: 8, Seed: 1, MaxInFlight: 1, MaxQueue: -1, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	first := make(chan error, 1)
	go func() {
		_, err := s.Exec(ctx, q, db)
		first <- err
	}()
	<-entered

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// Close rejects new work immediately but drains the in-flight call
	// before returning. (Probes shed with ErrOverloaded until the close
	// lands — the parked call still owns the only slot — then flip to the
	// closed error.)
	spinUntil(t, "session rejects post-close Exec", func() bool {
		_, err := s.Exec(ctx, q, db)
		return errors.Is(err, ErrSessionClosed)
	})
	select {
	case <-closed:
		t.Fatal("Close returned with an Exec still in flight")
	default:
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("in-flight Exec during Close: %v", err)
	}
	<-closed
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Everything the session owned (gate waiters) is gone.
	spinUntil(t, "goroutines drained after Close", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

func TestErrorTaxonomy(t *testing.T) {
	errs := map[string]error{
		"ErrOverloaded":     ErrOverloaded,
		"ErrSessionClosed":  ErrSessionClosed,
		"ErrStandingClosed": ErrStandingClosed,
		"ErrTornRound":      ErrTornRound,
		"ErrComputeFailed":  ErrComputeFailed,
	}
	for na, ea := range errs {
		for nb, eb := range errs {
			if (na == nb) != errors.Is(ea, eb) {
				t.Errorf("errors.Is(%s, %s) = %v", na, nb, errors.Is(ea, eb))
			}
		}
	}

	// Errors surfacing from real degradation paths stay errors.Is-matchable
	// through their wrapping.
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 200, 1<<20, 1))
	db.Put(MatchingRelation("S2", 2, 200, 1<<20, 2))
	q := Join2Query()
	s, err := Open(Config{P: 8, Seed: 1, Faults: &Faults{Seed: 1, ComputeFail: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Exec(context.Background(), q, db); !errors.Is(err, ErrComputeFailed) {
		t.Fatalf("compute-fail session: %v, want ErrComputeFailed", err)
	} else if errors.Is(err, ErrTornRound) {
		t.Fatalf("compute-fail error also matches ErrTornRound: %v", err)
	}
}

// TestSessionExplainEmptyRelation: an empty relation is a valid input, so
// Explain describes the plan for it rather than panicking, and Exec answers
// it (with nothing) under every strategy the query can take.
func TestSessionExplainEmptyRelation(t *testing.T) {
	s, err := Open(Config{P: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, q := range []*Query{Join2Query(), TriangleQuery()} {
		db := NewDatabase()
		for j, a := range q.Atoms {
			if j == 1 {
				db.Put(NewRelation(a.Name, 2, 1<<20))
			} else {
				db.Put(MatchingRelation(a.Name, 2, 500, 1<<13, int64(j+1)))
			}
		}
		if out := s.Explain(q, db); !strings.Contains(out, "integer shares:") {
			t.Errorf("%s: Explain with an empty relation = %q, want the analysis", q.Name, out)
		}
		for _, st := range []Strategy{StrategyHyperCube, StrategySkewJoin, StrategyBinCombination, StrategyMultiRound} {
			res, err := s.Exec(context.Background(), q, db, WithStrategy(st))
			if st == StrategySkewJoin && q.NumAtoms() != 2 {
				if !errors.Is(err, core.ErrInvalidQuery) {
					t.Errorf("%s under %v: %v, want ErrInvalidQuery", q.Name, st, err)
				}
				continue
			}
			if err != nil || len(res.Output) != 0 {
				t.Errorf("%s under %v: %d answers, error %v; want none and no error", q.Name, st, len(res.Output), err)
			}
		}
	}
}

// TestSessionRejectsNilInputs: the Session contract is "errors, never
// panics" — nil queries and databases (and, for Explain, a database missing
// a relation) come back as errors, and the nil cases are refused before the
// admission gate, so they never take a slot.
func TestSessionRejectsNilInputs(t *testing.T) {
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 200, 1<<20, 1))
	db.Put(MatchingRelation("S2", 2, 200, 1<<20, 2))
	q := Join2Query()
	s, err := Open(Config{P: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Exec(ctx, nil, db); !errors.Is(err, core.ErrInvalidQuery) {
		t.Errorf("Exec(nil query) = %v, want an error wrapping ErrInvalidQuery", err)
	}
	if _, err := s.Exec(ctx, q, nil); err == nil || errors.Is(err, core.ErrInvalidQuery) {
		t.Errorf("Exec(nil database) = %v, want a plain error", err)
	}
	if h, err := s.Standing(ctx, nil, db); h != nil || !errors.Is(err, core.ErrInvalidQuery) {
		t.Errorf("Standing(nil query) = %v, %v, want an error wrapping ErrInvalidQuery", h, err)
	}
	if h, err := s.Standing(ctx, q, nil); h != nil || err == nil || errors.Is(err, core.ErrInvalidQuery) {
		t.Errorf("Standing(nil database) = %v, %v, want a plain error", h, err)
	}
	if st := s.AdmissionStats(); st.Admitted != 0 {
		t.Errorf("nil inputs consumed admission slots: %+v", st)
	}

	half := NewDatabase()
	half.Put(MatchingRelation("S2", 2, 200, 1<<20, 2))
	for name, got := range map[string]string{
		"nil query":        s.Explain(nil, db),
		"nil database":     s.Explain(q, nil),
		"missing relation": s.Explain(q, half),
	} {
		if !strings.HasPrefix(got, "explain: ") {
			t.Errorf("Explain(%s) = %q, want the error text", name, got)
		}
	}
	if got := s.Explain(q, half); !strings.Contains(got, "missing relation S1") {
		t.Errorf("Explain(missing relation) = %q, want it to name S1", got)
	}

	// The session still serves after every rejection.
	if _, err := s.Exec(ctx, q, db); err != nil {
		t.Fatalf("valid Exec after rejections: %v", err)
	}
	if st := s.AdmissionStats(); st.Admitted != 1 {
		t.Errorf("Admitted = %d after one valid Exec, want 1", st.Admitted)
	}
}

// TestForcedStrategyTheQueryCannotTake: forcing a strategy whose planner
// cannot lay out q — the §4.1 skew join on anything but two binary atoms
// sharing one variable, or a value that names no strategy — is an error
// wrapping ErrInvalidQuery from Exec and Standing, refused before the
// admission gate, never a planner panic.
func TestForcedStrategyTheQueryCannotTake(t *testing.T) {
	s, err := Open(Config{P: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		name     string
		q        *Query
		strategy Strategy
	}{
		{"triangle skew-join", TriangleQuery(), StrategySkewJoin},
		{"path3 skew-join", PathQuery(3), StrategySkewJoin},
		{"cartesian skew-join", CartesianQuery(2), StrategySkewJoin},
		{"single-atom skew-join", MustParseQuery("q(x,y) = S1(x,y)"), StrategySkewJoin},
		{"join2 unknown strategy", Join2Query(), Strategy(99)},
	} {
		db := NewDatabase()
		for j, a := range tc.q.Atoms {
			db.Put(UniformRelation(a.Name, a.Arity(), 50, 1<<10, int64(j+1)))
		}
		if _, err := s.Exec(ctx, tc.q, db, WithStrategy(tc.strategy)); !errors.Is(err, core.ErrInvalidQuery) {
			t.Errorf("%s: Exec = %v, want an error wrapping ErrInvalidQuery", tc.name, err)
		}
		if h, err := s.Standing(ctx, tc.q, db, WithStrategy(tc.strategy)); h != nil || !errors.Is(err, core.ErrInvalidQuery) {
			t.Errorf("%s: Standing = %v, %v, want an error wrapping ErrInvalidQuery", tc.name, h, err)
		}
	}
	if st := s.AdmissionStats(); st.Admitted != 0 {
		t.Errorf("rejected strategies consumed admission slots: %+v", st)
	}
}

// TestRunRejectsInvalidConfig: Run reports every input its planners would
// panic on as an error.
func TestRunRejectsInvalidConfig(t *testing.T) {
	db := NewDatabase()
	db.Put(MatchingRelation("S1", 2, 200, 1<<20, 1))
	db.Put(MatchingRelation("S2", 2, 200, 1<<20, 2))
	db.Put(MatchingRelation("S3", 2, 200, 1<<20, 3))
	join2, tri := Join2Query(), TriangleQuery()
	for _, tc := range []struct {
		name    string
		q       *Query
		db      *Database
		cfg     RunConfig
		invalid bool // the error wraps ErrInvalidQuery
	}{
		{"nil query", nil, db, RunConfig{P: 8}, true},
		{"nil database", join2, nil, RunConfig{P: 8}, false},
		{"p below 2", join2, db, RunConfig{P: 1}, false},
		{"skew-join on a triangle", tri, db, RunConfig{Strategy: StrategySkewJoin, P: 8}, true},
		{"unknown strategy", join2, db, RunConfig{Strategy: Strategy(-1), P: 8}, true},
		{"shares with skew-join", join2, db, RunConfig{Strategy: StrategySkewJoin, P: 8, Shares: []int{1, 1, 8}}, false},
		{"shares with multi-round", join2, db, RunConfig{Strategy: StrategyMultiRound, P: 8, Shares: []int{1, 1, 8}}, false},
		{"too few shares", join2, db, RunConfig{P: 8, Shares: []int{1, 8}}, false},
		{"zero share", join2, db, RunConfig{P: 8, Shares: []int{0, 1, 8}}, false},
		{"negative share", join2, db, RunConfig{P: 8, Shares: []int{-2, -2, 1}}, false},
		{"share product above p", join2, db, RunConfig{P: 8, Shares: []int{2, 2, 4}}, false},
		{"missing relation", MustParseQuery("q(x,y) = R(x,y)"), db, RunConfig{P: 8}, false},
	} {
		res, err := Run(tc.q, tc.db, tc.cfg)
		if err == nil || tc.invalid != errors.Is(err, core.ErrInvalidQuery) {
			t.Errorf("%s: Run = %v, want an error (wrapping ErrInvalidQuery: %v)", tc.name, err, tc.invalid)
		}
		if res.Output != nil || res.MaxLoadBits != 0 {
			t.Errorf("%s: failed Run returned a result", tc.name)
		}
	}
	if _, err := Run(join2, db, RunConfig{P: 8, Shares: []int{2, 1, 4}}); err != nil {
		t.Errorf("shares using exactly p servers rejected: %v", err)
	}
}
