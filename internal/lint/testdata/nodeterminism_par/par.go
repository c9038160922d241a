// Package p is checked as the test variant of repro/internal/par, the one
// package whose non-test code may start goroutines: the analyzer must
// produce nothing here.
package p

// Go starts a goroutine where the engine's fan-out lives.
func Go(done chan struct{}) {
	go func() { close(done) }()
}
