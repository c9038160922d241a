package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/workload"
)

// wantHM asserts the hit and miss counters.
func wantHM(t *testing.T, e *Engine, label string, hits, misses uint64) {
	t.Helper()
	cs := e.CacheStats()
	if cs.Hits != hits || cs.Misses != misses {
		t.Errorf("%s: hits=%d misses=%d, want %d/%d", label, cs.Hits, cs.Misses, hits, misses)
	}
}

// TestPlanCacheHitSkipsReplanning is the cache-hit contract: repeated
// Execute on unchanged (query, db, p) reuses the cached physical plan —
// the second call must register a hit, not a second miss — and returns
// identical answers.
func TestPlanCacheHitSkipsReplanning(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Zipf("S1", 600, 100000, 1, 1.8, 100, 4),
		workload.Zipf("S2", 600, 100000, 1, 1.8, 100, 5),
	)
	e := newEngine(t, Config{P: 16, Seed: 9})
	if cs := e.CacheStats(); cs.Capacity != DefaultPlanCacheCapacity {
		t.Errorf("fresh engine Capacity = %d, want the default %d", cs.Capacity, DefaultPlanCacheCapacity)
	}
	first := execute(t, e, q, db, ExecOptions{})
	wantHM(t, e, "after first Execute", 0, 1)
	second := execute(t, e, q, db, ExecOptions{})
	wantHM(t, e, "after second Execute", 1, 1)
	if !join.EqualTupleSets(first.Output, second.Output) {
		t.Error("cached plan produced different answers")
	}
	if first.Plan.Strategy != second.Plan.Strategy {
		t.Error("cached plan changed strategy")
	}
}

// TestPlanCacheMissOnChange: the key is the database's identity and
// schema, not its content. A content change — a construction-time Add or an
// Apply — keeps the cached plan, which then answers for the new content;
// replacing a relation with one of a different arity, changing the query,
// forcing a different strategy, or overriding p each miss.
func TestPlanCacheMissOnChange(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Matching("S1", 2, 300, 100000, 1),
		workload.Matching("S2", 2, 300, 100000, 2),
	)
	db.Put(workload.Matching("T", 2, 10, 100000, 3)) // outside the query
	e := newEngine(t, Config{P: 8, Seed: 1})
	execute(t, e, q, db, ExecOptions{})

	// Same shape, different content: the one key still hits.
	db.MustGet("S1").Add(42, 99)
	execute(t, e, q, db, ExecOptions{})
	wantHM(t, e, "after db mutation", 1, 1)
	d := new(data.Delta).Insert("S1", 5000, 7).Insert("S2", 5001, 7).Insert("S2", 5002, 7)
	if err := db.Apply(d); err != nil {
		t.Fatal(err)
	}
	res := execute(t, e, q, db, ExecOptions{})
	wantHM(t, e, "after Apply", 2, 1)
	if want := join.Join(q, join.FromDatabase(db)); !join.EqualTupleSets(res.Output, want) {
		t.Errorf("cached plan after Apply: %d answers, oracle %d", len(res.Output), len(want))
	}

	// A relation replaced with a different arity changes the schema.
	db.Put(workload.Uniform("T", 3, 10, 100000, 3))
	execute(t, e, q, db, ExecOptions{})
	wantHM(t, e, "after replacing T with a ternary relation", 2, 2)

	// Different query text (renamed head variables keep the same semantics
	// but a different canonical form — conservative misses are fine).
	execute(t, e, query.MustParse("q(a,b,c) = S1(a,c), S2(b,c)"), db, ExecOptions{})
	wantHM(t, e, "after query change", 2, 3)

	// A forced strategy is part of the key.
	force := BinCombination
	execute(t, e, q, db, ExecOptions{Strategy: &force})
	wantHM(t, e, "after forcing strategy", 2, 4)

	// So is the server count: a per-call p must not reuse the p=8 layout.
	execute(t, e, q, db, ExecOptions{P: 4})
	wantHM(t, e, "after overriding p", 2, 5)

	// And the original (query, db) entry is still live.
	execute(t, e, q, db, ExecOptions{})
	if cs := e.CacheStats(); cs.Hits != 3 {
		t.Errorf("original entry evicted: hits=%d, want 3", cs.Hits)
	}
}

func TestPlanCacheDisable(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Matching("S1", 2, 200, 100000, 1),
		workload.Matching("S2", 2, 200, 100000, 2),
	)
	e := newEngine(t, Config{P: 8, Seed: 1})
	execute(t, e, q, db, ExecOptions{NoCache: true})
	execute(t, e, q, db, ExecOptions{NoCache: true})
	wantHM(t, e, "disabled cache still counting", 0, 0)
}

func TestClearPlanCache(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Matching("S1", 2, 200, 100000, 1),
		workload.Matching("S2", 2, 200, 100000, 2),
	)
	e := newEngine(t, Config{P: 8, Seed: 1})
	execute(t, e, q, db, ExecOptions{})
	e.ClearPlanCache()
	cs := e.CacheStats()
	if cs.Hits != 0 || cs.Misses != 0 || cs.Evictions != 0 || cs.Size != 0 {
		t.Errorf("state survives clear: %+v", cs)
	}
	execute(t, e, q, db, ExecOptions{})
	wantHM(t, e, "cache not rebuilt after clear", 0, 1)
}

// TestPlanCacheLRUEviction: with capacity c, inserting c+1 distinct keys
// evicts exactly the least-recently-used entry — a re-Execute of the
// evicted key misses while a recently touched key still hits.
func TestPlanCacheLRUEviction(t *testing.T) {
	q := query.Join2()
	mkdb := func(seed int64) *dbHandle {
		return &dbHandle{db2(
			workload.Matching("S1", 2, 100, 100000, seed),
			workload.Matching("S2", 2, 100, 100000, seed+50),
		)}
	}
	e := newEngine(t, Config{P: 8, Seed: 1, PlanCacheCapacity: 2})
	a, b, c := mkdb(1), mkdb(2), mkdb(3)

	execute(t, e, q, a.db, ExecOptions{}) // cache: [a]
	execute(t, e, q, b.db, ExecOptions{}) // cache: [b a]
	cs := e.CacheStats()
	if cs.Size != 2 || cs.Evictions != 0 {
		t.Fatalf("before eviction: %+v", cs)
	}
	execute(t, e, q, a.db, ExecOptions{}) // touch a → cache: [a b]
	execute(t, e, q, c.db, ExecOptions{}) // evicts b → cache: [c a]
	cs = e.CacheStats()
	if cs.Evictions != 1 || cs.Size != 2 {
		t.Fatalf("after third insert: %+v", cs)
	}
	execute(t, e, q, a.db, ExecOptions{}) // must still hit
	if got := e.CacheStats(); got.Hits != 2 {
		t.Errorf("touched entry was evicted: %+v", got)
	}
	execute(t, e, q, b.db, ExecOptions{}) // must miss (was the LRU victim) and evict again
	cs = e.CacheStats()
	if cs.Misses != 4 || cs.Evictions != 2 {
		t.Errorf("victim not evicted: %+v", cs)
	}
	if cs.Capacity != 2 {
		t.Errorf("Capacity = %d, want 2", cs.Capacity)
	}
}

// TestPlanCacheUnboundedNegativeCapacity: a negative capacity disables
// eviction entirely.
func TestPlanCacheUnboundedNegativeCapacity(t *testing.T) {
	q := query.Join2()
	e := newEngine(t, Config{P: 8, Seed: 1, PlanCacheCapacity: -1})
	for seed := int64(0); seed < 5; seed++ {
		db := db2(
			workload.Matching("S1", 2, 50, 100000, seed),
			workload.Matching("S2", 2, 50, 100000, seed+100),
		)
		execute(t, e, q, db, ExecOptions{})
	}
	cs := e.CacheStats()
	if cs.Evictions != 0 || cs.Size != 5 {
		t.Errorf("unbounded cache evicted: %+v", cs)
	}
}

// dbHandle names a database in the eviction test so the LRU walkthrough
// reads as [a b c].
type dbHandle struct{ db *data.Database }

// TestExecuteConcurrentSharedEngine exercises the cache under concurrent
// Execute calls on one engine (the production serving pattern): same
// answers from every goroutine and no data races (run under -race).
func TestExecuteConcurrentSharedEngine(t *testing.T) {
	q := query.Join2()
	db := db2(
		workload.Zipf("S1", 400, 100000, 1, 1.8, 80, 4),
		workload.Zipf("S2", 400, 100000, 1, 1.8, 80, 5),
	)
	e := newEngine(t, Config{P: 16, Seed: 9})
	want := join.Join(q, join.FromDatabase(db))
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			res, err := e.ExecuteContext(context.Background(), q, db, ExecOptions{})
			if err != nil {
				errs <- err
				return
			}
			if !join.EqualTupleSets(res.Output, want) {
				errs <- fmt.Errorf("concurrent Execute: %d tuples, want %d", len(res.Output), len(want))
				return
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if cs := e.CacheStats(); cs.Hits+cs.Misses != workers {
		t.Errorf("hits+misses = %d, want %d", cs.Hits+cs.Misses, workers)
	}
}
