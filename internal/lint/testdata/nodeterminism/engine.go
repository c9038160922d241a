// Package p distills determinism patterns from the engine core. The
// harness checks it under the import path repro/internal/mpc, so the
// violations mirror real regressions and the negatives mirror the seeded
// idioms mpc/exec actually use.
package p

import (
	"math/rand"
	"time"
)

// BadClock reads the wall clock in the deterministic core.
func BadClock() int64 {
	start := time.Now()          // want `time.Now in the deterministic core`
	d := time.Since(start)       // want `time.Since in the deterministic core`
	time.Sleep(time.Millisecond) // want `time.Sleep in the deterministic core`
	return int64(d)
}

// BadGlobalRand draws from process-global randomness.
func BadGlobalRand() int {
	return rand.Intn(10) // want `global math/rand.Intn`
}

// BadFanOut starts its own goroutine instead of running on internal/par.
func BadFanOut(done chan struct{}) {
	go func() { close(done) }() // want `go statement outside internal/par`
}

// GoodSeeded mirrors the engine idiom: explicitly seeded sources only.
func GoodSeeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// Sanctioned mirrors Retry's injectable-default escape hatch: a real wait
// is the documented fallback, waived with an audited directive.
func Sanctioned(d time.Duration) {
	//skewlint:allow nodeterminismbreak — injectable default, mirrors exec.Retry
	time.Sleep(d)
}
