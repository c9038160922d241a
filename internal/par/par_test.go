package par

import (
	"sync/atomic"
	"testing"
)

var sizes = []int{0, 1, 2, 7, 1000}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range sizes {
		runs := make([]atomic.Int32, n)
		Each(n, func(i int) { runs[i].Add(1) })
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
}

func TestForWorkersBelowWorkers(t *testing.T) {
	for _, n := range sizes {
		workers := Workers(n)
		if workers < 1 || workers > max(n, 1) {
			t.Fatalf("Workers(%d) = %d", n, workers)
		}
		calls := make([]atomic.Int32, workers)
		runs := make([]atomic.Int32, n)
		For(workers, func(w int, next func() int) {
			if w < 0 || w >= workers {
				t.Errorf("n=%d: worker %d outside [0, %d)", n, w, workers)
				return
			}
			calls[w].Add(1)
			for i := next(); i < n; i = next() {
				runs[i].Add(1)
			}
		})
		for w := range calls {
			if got := calls[w].Load(); got != 1 {
				t.Fatalf("n=%d: worker %d ran %d times", n, w, got)
			}
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d claimed %d times", n, i, got)
			}
		}
	}
}

// TestOneWorkerRunsOnCaller panics in a one-worker body: only a body that
// runs on the calling goroutine can have its panic caught by the caller's
// recover — on any other goroutine it would end the test binary.
func TestOneWorkerRunsOnCaller(t *testing.T) {
	for _, run := range []func(){
		func() { Each(1, func(int) { panic("body") }) },
		func() { For(1, func(int, func() int) { panic("body") }) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "body" {
					t.Fatalf("recovered %v, want the body's panic", r)
				}
			}()
			run()
			t.Fatal("the call returned after its body panicked")
		}()
	}
}
