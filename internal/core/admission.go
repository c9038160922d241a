package core

import (
	"context"
	"fmt"
	"sync"
)

// AdmissionStats reports an admission gate's cumulative traffic and current
// occupancy.
type AdmissionStats struct {
	// Admitted counts calls that entered execution (immediately or after
	// waiting in the queue).
	Admitted uint64
	// Queued counts calls that had to wait for a slot before entering or
	// being shed/cancelled.
	Queued uint64
	// Shed counts calls rejected with ErrOverloaded because the wait queue
	// was full.
	Shed uint64
	// InFlight is the number of calls currently executing.
	InFlight int
	// QueueDepth is the number of calls currently waiting for a slot.
	QueueDepth int
	// MaxInFlight and MaxQueue echo the gate's configured bounds
	// (0 = unbounded).
	MaxInFlight int
	MaxQueue    int
}

// Gate is a bounded in-flight admission gate with a FIFO wait queue: at
// most capacity calls execute concurrently, at most maxQueue more wait
// (context-aware), and beyond that calls are shed with ErrOverloaded.
// Close drains: it rejects new arrivals and queued waiters with
// ErrSessionClosed and blocks until every in-flight call has left.
//
// A capacity ≤ 0 disables the in-flight bound (the gate still tracks
// occupancy and supports Close-drain semantics).
type Gate struct {
	mu       sync.Mutex
	capacity int
	maxQueue int
	inflight int
	waiting  int
	waiters  []*gateWaiter
	closed   bool
	closedCh chan struct{} // closed by Close; wakes every queued waiter
	idle     chan struct{} // closed when inflight drains to 0 after Close

	admitted uint64
	queued   uint64
	shed     uint64
}

type gateWaiter struct {
	ready    chan struct{} // closed when a slot is handed to this waiter
	admitted bool          // guarded by Gate.mu
	canceled bool          // guarded by Gate.mu
}

// NewGate returns a gate admitting capacity concurrent calls with a FIFO
// wait queue of maxQueue. capacity ≤ 0 means unbounded (never queues);
// maxQueue ≤ 0 means shed immediately at capacity.
func NewGate(capacity, maxQueue int) *Gate {
	if capacity <= 0 {
		capacity, maxQueue = 0, 0
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Gate{capacity: capacity, maxQueue: maxQueue, closedCh: make(chan struct{})}
}

// Enter blocks until the call is admitted, the queue overflows
// (ErrOverloaded), ctx fires (the ctx error, wrapped), or the gate closes
// (ErrSessionClosed). On nil error the caller owns a slot and must Leave.
// A free slot admits immediately without consulting ctx.
func (g *Gate) Enter(ctx context.Context) error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return ErrSessionClosed
	}
	if g.capacity == 0 || g.inflight < g.capacity {
		g.inflight++
		g.admitted++
		g.mu.Unlock()
		return nil
	}
	if g.waiting >= g.maxQueue {
		g.shed++
		g.mu.Unlock()
		return ErrOverloaded
	}
	w := &gateWaiter{ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.waiting++
	g.queued++
	g.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ready:
		return nil
	case <-g.closedCh:
		if g.abandonWaiter(w) {
			return nil // admitted in the race; keep the slot
		}
		return ErrSessionClosed
	case <-done:
		if g.abandonWaiter(w) {
			return nil // admitted in the race; keep the slot
		}
		return fmt.Errorf("core: admission wait: %w", ctx.Err())
	}
}

// abandonWaiter resolves the race between a waiter giving up (cancel,
// close) and Leave handing it a slot. It reports true when the slot was
// already handed over — the caller then proceeds as admitted rather than
// abandoning a slot nobody would release.
func (g *Gate) abandonWaiter(w *gateWaiter) (keptSlot bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.admitted {
		return true
	}
	w.canceled = true
	g.waiting--
	return false
}

// Leave releases a slot obtained by Enter, handing it to the head of the
// wait queue if one is live. After Close, slots are not handed over —
// queued waiters are being rejected — so the gate drains.
func (g *Gate) Leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.closed && len(g.waiters) > 0 {
		w := g.waiters[0]
		g.waiters[0] = nil
		g.waiters = g.waiters[1:]
		if w.canceled {
			continue
		}
		// Hand the slot over: inflight is unchanged.
		w.admitted = true
		g.waiting--
		g.admitted++
		close(w.ready)
		return
	}
	g.inflight--
	if g.closed && g.inflight == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
}

// Close marks the gate closed — subsequent Enter calls and queued waiters
// get ErrSessionClosed — and blocks until every in-flight call has Left.
// Close is idempotent and safe to call concurrently.
func (g *Gate) Close() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.closedCh)
	}
	if g.inflight == 0 {
		g.mu.Unlock()
		return
	}
	if g.idle == nil {
		g.idle = make(chan struct{})
	}
	idle := g.idle
	g.mu.Unlock()
	<-idle
}

// Stats returns the gate's counters and occupancy.
func (g *Gate) Stats() AdmissionStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return AdmissionStats{
		Admitted:    g.admitted,
		Queued:      g.queued,
		Shed:        g.shed,
		InFlight:    g.inflight,
		QueueDepth:  g.waiting,
		MaxInFlight: g.capacity,
		MaxQueue:    g.maxQueue,
	}
}
