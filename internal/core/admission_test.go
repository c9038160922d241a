package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// waitUntil spins (yielding, never sleeping) until cond holds or a bounded
// number of yields elapses.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("condition never held: %s", what)
}

func TestGateShedsBeyondQueue(t *testing.T) {
	g := NewGate(1, 0)
	if err := g.Enter(context.Background()); err != nil {
		t.Fatalf("first Enter: %v", err)
	}
	// At capacity with no queue: immediate typed shed.
	if err := g.Enter(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second Enter: %v, want ErrOverloaded", err)
	}
	g.Leave()
	if err := g.Enter(context.Background()); err != nil {
		t.Fatalf("Enter after Leave: %v", err)
	}
	g.Leave()
	st := g.Stats()
	if st.Admitted != 2 || st.Shed != 1 || st.Queued != 0 || st.InFlight != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGateFIFOHandoff(t *testing.T) {
	g := NewGate(1, 2)
	if err := g.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	// Queue two waiters in a known order (each is observed queued before the
	// next starts), then verify slots hand off first-come first-served.
	for i := 1; i <= 2; i++ {
		i := i
		depth := i
		go func() {
			if err := g.Enter(context.Background()); err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			order <- i
		}()
		waitUntil(t, "waiter queued", func() bool { return g.Stats().QueueDepth == depth })
	}
	g.Leave() // hands the slot to waiter 1
	if got := <-order; got != 1 {
		t.Fatalf("first handoff went to waiter %d", got)
	}
	g.Leave() // hands to waiter 2
	if got := <-order; got != 2 {
		t.Fatalf("second handoff went to waiter %d", got)
	}
	g.Leave()
	st := g.Stats()
	if st.Admitted != 3 || st.Queued != 2 || st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestGateContextCancelWhileQueued(t *testing.T) {
	g := NewGate(1, 1)
	if err := g.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- g.Enter(ctx) }()
	waitUntil(t, "waiter queued", func() bool { return g.Stats().QueueDepth == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued waiter: %v, want context.Canceled", err)
	}
	// The canceled waiter left the queue: Leave must not strand the slot.
	g.Leave()
	if err := g.Enter(context.Background()); err != nil {
		t.Fatalf("Enter after canceled waiter: %v", err)
	}
	g.Leave()
}

func TestGateCloseDrainsAndRejects(t *testing.T) {
	g := NewGate(1, 1)
	if err := g.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- g.Enter(context.Background()) }()
	waitUntil(t, "waiter queued", func() bool { return g.Stats().QueueDepth == 1 })

	closed := make(chan struct{})
	go func() { g.Close(); close(closed) }()
	// The queued waiter is rejected, not handed the in-flight slot.
	if err := <-queued; !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("queued waiter after Close: %v, want ErrSessionClosed", err)
	}
	// Close blocks until the in-flight call leaves.
	waitUntil(t, "gate marked closed", g.Closed)
	select {
	case <-closed:
		t.Fatal("Close returned with a call still in flight")
	default:
	}
	if err := g.Enter(context.Background()); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Enter after Close: %v, want ErrSessionClosed", err)
	}
	g.Leave()
	<-closed
	if st := g.Stats(); st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
	g.Close() // idempotent
}

func TestGateUnboundedNeverQueues(t *testing.T) {
	g := NewGate(0, 5)
	for i := 0; i < 100; i++ {
		if err := g.Enter(context.Background()); err != nil {
			t.Fatalf("Enter %d: %v", i, err)
		}
	}
	st := g.Stats()
	if st.InFlight != 100 || st.Queued != 0 || st.Shed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	for i := 0; i < 100; i++ {
		g.Leave()
	}
	g.Close()
}

// Closed reports whether Close has been called.
func (g *Gate) Closed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}
