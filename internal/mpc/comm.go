// The sharded zero-channel communication engine.
//
// The MPC model charges only for bits received, but the simulator used to
// pay real costs the model doesn't: one goroutine per send part and one
// goroutine plus one buffered channel per (virtual) server. A §4.2 plan
// with Θ(p) virtual servers per bin combination spent more time in
// scheduler and channel overhead than in routing. This engine replaces all
// of that with two bounded passes over plain memory:
//
//  1. Route: min(GOMAXPROCS, parts) workers pull sendParts off a shared
//     atomic counter. Each worker batches routed tuples in a dense
//     per-destination table (a slice indexed by server ID with a touched
//     list — no map lookup per tuple) and publishes full column slabs to
//     the destination's mailbox, a plain slice under a per-mailbox mutex.
//  2. Deliver: the same bounded pool claims servers off a second counter
//     and bulk-appends each mailbox's slabs into the server's fragments —
//     no receiver goroutines, no channels, no locks (phase 1 finished).
//
// The two passes double as a transaction: the mailboxes are the round's
// staged state, and the deliver pass is its commit point, run only once
// every send part of the round has been routed. A torn or canceled round
// discards the staged slabs instead (discardStaged), so receiver fragments
// and load counters stay bit-identical to the pre-round state and the
// round can simply be re-driven.
//
// Slabs are recycled through per-worker free lists and mailbox/table
// scratch lives on the Cluster, so a pooled cluster serving repeated
// rounds stops allocating at steady state. Within a fragment the arrival
// order of slabs depends on worker interleaving: delivered fragments are
// deterministic as multisets, not as sequences.
package mpc

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/data"
)

// batchTuples is the slab size: tuples per destination batched before the
// slab is published to the destination's mailbox.
const batchTuples = 128

// delivery is one routed tuple batch destined for a single server, shipped
// as per-column slabs: cols[a] holds attribute a of every batched tuple.
// Receivers append the slabs column-wise in one copy per attribute instead
// of re-validating tuples value by value.
type delivery struct {
	rel    string
	arity  int
	domain int64
	bits   int64 // bits per tuple
	cols   [][]int64
	count  int
}

// mailbox collects the published slabs of one receiver. The mutex is
// contended only during the route pass; the deliver pass owns each mailbox
// exclusively. Padded to a cache line so neighboring mailboxes don't false-
// share under concurrent publishes.
type mailbox struct {
	mu  sync.Mutex
	box []delivery
	_   [64 - 8 - 24]byte
}

// maxFreeSlabs bounds a worker's slab free list (maxFreeSlabs·batchTuples
// int64s) so one giant round doesn't pin its whole routed volume as
// recycled slabs on a pooled cluster.
const maxFreeSlabs = 256

// commWorker is one worker's reusable routing state: the dense destination
// table, its touched list, the slab free list, and per-tuple scratch.
type commWorker struct {
	table   []delivery // indexed by destination server
	touched []int      // destinations with a live batch in table
	free    [][]int64  // recycled slabs, each cap batchTuples
	dst     []int
	dedup   dedupSet
	scratch data.Tuple
	span    SpanRoute // CompileSpan scratch, reused across spans
}

// commState is the cluster-owned engine scratch, reused across rounds.
type commState struct {
	mail    []mailbox
	workers []*commWorker
}

// slab returns a recycled (or fresh) slab of cap batchTuples.
func (w *commWorker) slab() []int64 {
	if n := len(w.free); n > 0 {
		s := w.free[n-1][:0]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return s
	}
	return make([]int64, 0, batchTuples)
}

// recycle returns a consumed delivery's slabs to the free list.
func (w *commWorker) recycle(cols [][]int64) {
	for _, col := range cols {
		if len(w.free) >= maxFreeSlabs {
			return
		}
		w.free = append(w.free, col)
	}
}

// publish moves the batch in d (if any) to server's mailbox; d is left
// empty with its slabs handed over.
func (w *commWorker) publish(c *Cluster, server int, d *delivery) {
	if d.count == 0 {
		return
	}
	mb := &c.comm.mail[server]
	mb.mu.Lock()
	mb.box = append(mb.box, *d)
	mb.mu.Unlock()
	d.cols = nil
	d.count = 0
}

// route is one worker's share of the route pass: claim parts off the
// shared counter until none remain, batching per destination in the dense
// table, then flush every touched batch.
func (w *commWorker) route(c *Cluster, parts []sendPart, next *atomic.Int64, router Router, report func(error)) {
	r := forSender(router)
	cr, columnar := r.(ColumnRouter)
	sr, spannable := r.(SpanRouter)
	if cap(w.table) < c.P {
		w.table = make([]delivery, c.P)
	}
	table := w.table[:c.P]
	for {
		pi := int(next.Add(1)) - 1
		if pi >= len(parts) {
			break
		}
		// Per-part checkpoint: injected stragglers stall here (the hook is
		// the delay), and a context canceled mid-round aborts this worker
		// instead of letting the round run to completion. Checkpoint
		// granularity is one send part — bounded by Senders/ResidentChunk —
		// so a canceled 1000-part round stops after the parts in flight.
		if f := c.Faults; f != nil && f.OnStraggle != nil && f.WouldStraggleAttempt(c.curRound, c.curAttempt, pi) {
			f.OnStraggle()
		}
		if ctx := c.Ctx; ctx != nil {
			if err := ctx.Err(); err != nil {
				report(fmt.Errorf("mpc: round canceled at part %d of %d: %w", pi, len(parts), err))
				break
			}
		}
		part := parts[pi]
		if spannable {
			if idx := part.rel.Partitions(); idx != nil && sr.SpansAttr(part.rel, idx.Attr) {
				w.routeSpans(c, table, part, idx, sr, report)
				continue
			}
		}
		w.routeRows(c, table, part.rel, part.lo, part.hi, r, cr, columnar, report)
	}
	// Flush the stragglers. touched may hold duplicates (a destination
	// whose batch filled and restarted); publish skips the empties.
	for _, server := range w.touched {
		w.publish(c, server, &table[server])
	}
	w.touched = w.touched[:0]
}

// routeRows routes rows [lo, hi) of rel one tuple at a time — the general
// path for unpartitioned relations, light regions, uncovered tails, and
// declined spans.
//
//skewlint:noalloc
func (w *commWorker) routeRows(c *Cluster, table []delivery, rel *data.Relation, lo, hi int, r Router, cr ColumnRouter, columnar bool, report func(error)) {
	cols := rel.Columns()
	arity := rel.Arity
	bits := rel.BitsPerTuple()
	if cap(w.scratch) < arity {
		//skewlint:allow noalloc — one-time scratch growth to the widest arity, amortized across rounds
		w.scratch = make(data.Tuple, arity)
	}
	scratch := w.scratch[:arity]
	for row := lo; row < hi; row++ {
		if columnar {
			w.dst = cr.DestinationsAt(rel, row, w.dst[:0])
		} else {
			w.dst = r.Destinations(rel.Name, rel.ReadTuple(row, scratch), w.dst[:0])
		}
		w.send(c, table, rel, cols, arity, bits, row, w.dst, report)
	}
}

// routeSpans routes one send part of a partitioned relation partition-wise:
// the light prefix and the uncovered tail per-tuple, each heavy span through
// one CompileSpan call — bulk column-range appends when the route is
// uniform, a pre-resolved per-row closure otherwise.
func (w *commWorker) routeSpans(c *Cluster, table []delivery, part sendPart, idx *data.PartitionIndex, sr SpanRouter, report func(error)) {
	rel := part.rel
	lo, hi := part.lo, part.hi
	if lo < idx.LightEnd {
		w.routeRows(c, table, rel, lo, min(hi, idx.LightEnd), sr, sr, true, report)
	}
	pos := max(lo, idx.LightEnd)
	spans := idx.Spans
	si := sort.Search(len(spans), func(i int) bool { return spans[i].End > pos })
	for ; si < len(spans) && spans[si].Start < hi; si++ {
		sp := spans[si]
		slo, shi := max(sp.Start, lo), min(sp.End, hi)
		if slo >= shi {
			continue
		}
		w.span.Dests = w.span.Dests[:0]
		w.span.PerRow = nil
		if !sr.CompileSpan(rel, idx.Attr, sp.Value, &w.span) {
			w.routeRows(c, table, rel, slo, shi, sr, sr, true, report)
			continue
		}
		if w.span.PerRow != nil {
			w.routePerRow(c, table, rel, slo, shi, w.span.PerRow, report)
		} else {
			w.sendRange(c, table, rel, slo, shi, w.span.Dests, report)
		}
	}
	if hi > idx.Rows {
		w.routeRows(c, table, rel, max(lo, idx.Rows), hi, sr, sr, true, report)
	}
	// Don't pin the last compiled closure (and whatever it captured) on the
	// pooled worker past the round.
	w.span.PerRow = nil
}

// routePerRow routes rows [lo, hi) through a compiled per-row closure.
//
//skewlint:noalloc
func (w *commWorker) routePerRow(c *Cluster, table []delivery, rel *data.Relation, lo, hi int, perRow func(row int, dst []int) []int, report func(error)) {
	cols := rel.Columns()
	arity := rel.Arity
	bits := rel.BitsPerTuple()
	for row := lo; row < hi; row++ {
		w.dst = perRow(row, w.dst[:0])
		w.send(c, table, rel, cols, arity, bits, row, w.dst, report)
	}
}

// send batches row `row` of rel for every (deduplicated, validated)
// destination in dst.
//
//skewlint:noalloc
func (w *commWorker) send(c *Cluster, table []delivery, rel *data.Relation, cols [][]int64, arity int, bits int64, row int, dst []int, report func(error)) {
	for _, server := range w.dedup.dedup(dst) {
		if server < 0 || server >= c.P {
			//skewlint:allow noalloc — error path: a malformed router has already broken the round
			report(fmt.Errorf("mpc: destination %d out of range [0,%d)", server, c.P))
			continue
		}
		d := &table[server]
		if d.cols != nil && d.rel != rel.Name {
			// Batches are per (destination, relation): a new
			// relation closes the previous batch.
			w.publish(c, server, d)
		}
		if d.cols == nil {
			d.rel, d.arity, d.domain, d.bits = rel.Name, arity, rel.Domain, bits
			//skewlint:allow noalloc — fresh-batch header, once per batchTuples rows; columns come from the slab pool
			s := make([][]int64, arity)
			for a := range s {
				s[a] = w.slab()
			}
			d.cols = s
			w.touched = append(w.touched, server)
		}
		for a := 0; a < arity; a++ {
			d.cols[a] = append(d.cols[a], cols[a][row])
		}
		d.count++
		if d.count >= batchTuples {
			w.publish(c, server, d)
		}
	}
}

// sendRange ships rows [lo, hi) of rel wholesale to every destination in
// dst: per-column range appends into slabs, batchTuples at a time — the
// uniform-span fast path with no per-row router work.
//
//skewlint:noalloc
func (w *commWorker) sendRange(c *Cluster, table []delivery, rel *data.Relation, lo, hi int, dst []int, report func(error)) {
	cols := rel.Columns()
	arity := rel.Arity
	bits := rel.BitsPerTuple()
	for _, server := range w.dedup.dedup(dst) {
		if server < 0 || server >= c.P {
			//skewlint:allow noalloc — error path: a malformed router has already broken the round
			report(fmt.Errorf("mpc: destination %d out of range [0,%d)", server, c.P))
			continue
		}
		d := &table[server]
		if d.cols != nil && d.rel != rel.Name {
			w.publish(c, server, d)
		}
		row := lo
		for row < hi {
			if d.cols == nil {
				d.rel, d.arity, d.domain, d.bits = rel.Name, arity, rel.Domain, bits
				//skewlint:allow noalloc — fresh-batch header, once per batchTuples rows; columns come from the slab pool
				s := make([][]int64, arity)
				for a := range s {
					s[a] = w.slab()
				}
				d.cols = s
				w.touched = append(w.touched, server)
			}
			n := min(batchTuples-d.count, hi-row)
			for a := 0; a < arity; a++ {
				d.cols[a] = append(d.cols[a], cols[a][row:row+n]...)
			}
			d.count += n
			row += n
			if d.count >= batchTuples {
				w.publish(c, server, d)
			}
		}
	}
}

// deliver is one worker's share of the deliver pass: claim servers off the
// shared counter and bulk-append their mailboxes. Runs strictly after the
// route pass, so mailboxes need no locking here.
func (w *commWorker) deliver(c *Cluster, next *atomic.Int64) {
	for {
		i := int(next.Add(1)) - 1
		if i >= c.P {
			return
		}
		mb := &c.comm.mail[i]
		if len(mb.box) == 0 {
			continue
		}
		s := c.Servers[i]
		for j := range mb.box {
			d := &mb.box[j]
			frag, ok := s.Received[d.rel]
			if !ok {
				frag = data.NewRelation(d.rel, d.arity, d.domain)
				s.Received[d.rel] = frag
			}
			frag.AppendColumns(d.cols, d.count)
			s.BitsIn += d.bits * int64(d.count)
			s.TuplesIn += int64(d.count)
			w.recycle(d.cols)
			// Drop the stale references so the retained mailbox slice
			// doesn't pin slabs (now owned by the free list) or names.
			*d = delivery{}
		}
		mb.box = mb.box[:0]
	}
}

// stageSharded runs the route pass of the sharded delivery engine: every
// part is routed and its slabs are staged in the receivers' mailboxes, but
// nothing touches receiver fragments or load counters. The round's staged
// state is then either committed wholesale (commitStaged) once the caller
// knows every send part of the round arrived, or discarded wholesale
// (discardStaged) — the transactional half-round that makes a torn round
// replayable in place.
func (c *Cluster) stageSharded(parts []sendPart, router Router) error {
	var errOnce sync.Once
	var routeErr error
	report := func(err error) {
		errOnce.Do(func() { routeErr = err })
	}

	procs := runtime.GOMAXPROCS(0)
	routeWorkers := min(procs, len(parts))
	deliverWorkers := min(procs, c.P)
	st := &c.comm
	if len(st.mail) < c.P {
		st.mail = make([]mailbox, c.P)
	}
	// Size the worker pool for the deliver pass too, so commitStaged can
	// run without re-checking.
	for len(st.workers) < max(routeWorkers, deliverWorkers) {
		st.workers = append(st.workers, &commWorker{})
	}

	var next atomic.Int64
	if routeWorkers <= 1 {
		st.workers[0].route(c, parts, &next, router, report)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < routeWorkers; w++ {
			wg.Add(1)
			go func(cw *commWorker) {
				defer wg.Done()
				cw.route(c, parts, &next, router, report)
			}(st.workers[w])
		}
		wg.Wait()
	}
	return routeErr
}

// commitStaged runs the deliver pass over the staged mailboxes: bounded
// workers claim servers and bulk-append each mailbox's slabs into the
// server's fragments and load counters. This is the round's commit point —
// it runs only after every send part has been routed cleanly.
func (c *Cluster) commitStaged() {
	st := &c.comm
	if len(st.mail) < c.P || len(st.workers) == 0 {
		return // nothing was staged
	}
	deliverWorkers := min(runtime.GOMAXPROCS(0), c.P)
	var next atomic.Int64
	if deliverWorkers <= 1 {
		st.workers[0].deliver(c, &next)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < deliverWorkers; w++ {
		wg.Add(1)
		go func(cw *commWorker) {
			defer wg.Done()
			cw.deliver(c, &next)
		}(st.workers[w])
	}
	wg.Wait()
}

// discardStaged drops every staged slab without touching receiver fragments
// or load counters, leaving the cluster bit-identical to its pre-round
// state. Slabs are recycled into the first worker's free list up to its
// cap; the rest is left to the collector — discard runs only on faulted or
// canceled rounds.
func (c *Cluster) discardStaged() {
	st := &c.comm
	if len(st.workers) == 0 {
		return
	}
	w := st.workers[0]
	for i := range st.mail {
		mb := &st.mail[i]
		for j := range mb.box {
			w.recycle(mb.box[j].cols)
			mb.box[j] = delivery{}
		}
		mb.box = mb.box[:0]
	}
}

// dedupScanLimit is the fan-out up to which dedup uses the allocation-free
// quadratic scan; routers rarely emit duplicates and rarely fan out wider.
const dedupScanLimit = 32

// dedupSet removes duplicate destinations from wide fan-outs with a map
// reused across tuples. The map is dropped and resized down when its
// allocated size dwarfs the fan-outs it is serving — one §4.2 broadcast
// must not pin a huge map for the rest of the run.
type dedupSet struct {
	seen map[int]struct{}
	// sized is the fan-out the map was last allocated (or grown) for.
	sized int
}

// dedupShrinkFloor and dedupShrinkFactor gate the shrink: recreate the map
// only when it was sized for at least the floor and the current fan-out is
// a factor smaller, so alternating medium fan-outs don't thrash.
const (
	dedupShrinkFloor  = 1024
	dedupShrinkFactor = 4
)

// dedup removes duplicate server IDs from dst in place, preserving
// first-occurrence order (the model delivers duplicates once).
func (ds *dedupSet) dedup(dst []int) []int {
	if len(dst) <= dedupScanLimit {
		n := 0
	outer:
		for _, server := range dst {
			for _, prev := range dst[:n] {
				if prev == server {
					continue outer
				}
			}
			dst[n] = server
			n++
		}
		return dst[:n]
	}
	if ds.seen != nil && ds.sized >= dedupShrinkFloor && ds.sized >= dedupShrinkFactor*len(dst) {
		ds.seen = nil
	}
	if ds.seen == nil {
		ds.seen = make(map[int]struct{}, len(dst))
		ds.sized = len(dst)
	} else {
		clear(ds.seen)
		if len(dst) > ds.sized {
			ds.sized = len(dst)
		}
	}
	n := 0
	for _, server := range dst {
		if _, dup := ds.seen[server]; dup {
			continue
		}
		ds.seen[server] = struct{}{}
		dst[n] = server
		n++
	}
	return dst[:n]
}
