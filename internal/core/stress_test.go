package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/data"
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
