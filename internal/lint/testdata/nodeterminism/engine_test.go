package p

import (
	"testing"
	"time"
)

// TestSleepy violates the sleep-free-test contract; reading the clock in
// a test is fine (only Sleep makes a test timing-dependent).
func TestSleepy(t *testing.T) {
	time.Sleep(time.Millisecond) // want `time.Sleep in a test`
	if time.Now().IsZero() {
		t.Fatal("clock is broken")
	}
}

// TestGoroutine may start goroutines: the go-statement rule covers
// non-test code only.
func TestGoroutine(t *testing.T) {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}
