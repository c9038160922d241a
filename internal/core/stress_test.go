package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/workload"
)

func tuplesEqual(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// TestConcurrentExecuteSharedEngine hammers one engine from many
// goroutines with cache-hitting repeat queries — the repeated-traffic
// serving case. Every Execute shares the engine's pooled clusters and
// scratch buffers, so under -race this doubles as the data-race gate for
// cluster pooling, output detaching, and the sharded delivery engine; the
// answer comparison catches pooled buffers leaking into escaped results.
func TestConcurrentExecuteSharedEngine(t *testing.T) {
	zdb := data.NewDatabase()
	zdb.Put(workload.Zipf("S1", 600, 1<<20, 1, 1.6, 80, 1))
	zdb.Put(workload.Zipf("S2", 600, 1<<20, 1, 1.6, 80, 2))
	join2 := query.Join2()

	tdb := data.NewDatabase()
	for j, name := range []string{"S1", "S2", "S3"} {
		tdb.Put(workload.Matching(name, 2, 800, 1<<16, int64(j+1)))
	}
	triangle := query.Triangle()

	e := newEngine(t, Config{P: 16, Seed: 3})
	refJoin := execute(t, e, join2, zdb, ExecOptions{})
	sortTuples(refJoin.Output)
	refTri := execute(t, e, triangle, tdb, ExecOptions{})
	sortTuples(refTri.Output)
	if len(refJoin.Output) == 0 {
		t.Fatal("reference join produced no answers; the stress test would be vacuous")
	}

	const goroutines = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Alternate plan shapes so concurrent Executes mix cluster
				// sizes in the shared pool, not just trade one cluster.
				if (g+i)%2 == 0 {
					res, err := e.ExecuteContext(context.Background(), join2, zdb, ExecOptions{})
					if err != nil {
						errs <- err.Error()
						return
					}
					sortTuples(res.Output)
					if !tuplesEqual(res.Output, refJoin.Output) {
						errs <- "join2 answers diverged under concurrency"
						return
					}
					if res.MaxLoadBits != refJoin.MaxLoadBits {
						errs <- "join2 loads diverged under concurrency"
						return
					}
				} else {
					res, err := e.ExecuteContext(context.Background(), triangle, tdb, ExecOptions{})
					if err != nil {
						errs <- err.Error()
						return
					}
					sortTuples(res.Output)
					if !tuplesEqual(res.Output, refTri.Output) {
						errs <- "triangle answers diverged under concurrency"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if stats := e.CacheStats(); stats.Hits < goroutines*iters {
		t.Errorf("cache hits = %d, want >= %d (stress must exercise the cached-plan path)",
			stats.Hits, goroutines*iters)
	}
}

// TestExecuteRawMasterRacesApply: ExecuteContext handed a mutable master
// reads a snapshot it takes itself, so executions racing Database.Apply —
// and the heavy-partition rebuilds they drive on the master — are
// race-free under -race, and every answer set is the oracle's at some
// version of the database.
func TestExecuteRawMasterRacesApply(t *testing.T) {
	q := query.Join2()
	mk := func() *data.Database {
		return db2(
			workload.Zipf("S1", 300, 1<<20, 1, 1.6, 60, 1),
			workload.Zipf("S2", 300, 1<<20, 1, 1.6, 60, 2),
		)
	}
	db, ref := mk(), mk()
	// Each step adds one answer and retracts the previous step's.
	const steps = 6
	deltas := make([]*data.Delta, steps)
	for i := range deltas {
		z := int64(1<<19 + i)
		deltas[i] = new(data.Delta).Insert("S1", z, z).Insert("S2", z+1000, z)
		if i > 0 {
			deltas[i].Delete("S1", z-1, z-1)
		}
	}
	oracle := func() []data.Tuple {
		ts := join.Join(q, join.FromDatabase(ref))
		sortTuples(ts)
		return ts
	}
	oracles := [][]data.Tuple{oracle()}
	for _, d := range deltas {
		if err := ref.Apply(d); err != nil {
			t.Fatal(err)
		}
		oracles = append(oracles, oracle())
	}

	e := newEngine(t, Config{P: 16, Seed: 3})
	const workers, iters = 3, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, d := range deltas {
			if err := db.Apply(d); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := e.ExecuteContext(context.Background(), q, db, ExecOptions{})
				if err != nil {
					errs <- err
					return
				}
				sortTuples(res.Output)
				if !slices.ContainsFunc(oracles, func(want []data.Tuple) bool { return tuplesEqual(res.Output, want) }) {
					errs <- fmt.Errorf("%d answers match the oracle at no version", len(res.Output))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
