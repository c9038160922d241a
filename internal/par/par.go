// Package par is the one place the engine starts goroutines: every fan-out
// — the comm engine's passes, local compute, the residual bounds,
// per-relation statistics, the layout gather and the linter — runs on For
// or Each. A call runs on Workers(n) workers that claim item indices off one
// shared counter; the calling goroutine is the last of them, so a
// one-worker call starts no goroutine, and a call returns once every worker
// has.
//
// Determinism is a convention the callers keep: item i writes only slot i
// of a result the caller owns, and any reduction over the slots runs after
// the call, in index order. The result then depends on neither GOMAXPROCS
// nor the schedule.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the worker count for n items: min(GOMAXPROCS, n), at least 1.
func Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// For runs body once per worker w in [0, workers), workers ≥ 1, the last on
// the calling goroutine. next claims item indices 0, 1, 2, … off the
// counter the workers share, so each worker loops on next() until it passes
// the item count; state indexed by w needs no lock.
func For(workers int, body func(w int, next func() int)) {
	var claimed atomic.Int64
	next := func() int { return int(claimed.Add(1)) - 1 }
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go func() {
			defer wg.Done()
			body(w, next)
		}()
	}
	body(workers-1, next)
	wg.Wait()
}

// Each runs body(i) once for every i in [0, n) on Workers(n) workers.
func Each(n int, body func(i int)) {
	For(Workers(n), func(_ int, next func() int) {
		for i := next(); i < n; i = next() {
			body(i)
		}
	})
}
