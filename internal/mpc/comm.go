// The count-then-scatter communication engine. A round is two passes of
// internal/par workers claiming sendParts off a shared counter:
//
//  1. Route: each part records where its rows go — a destination log plus
//     sparse per-server row counts (partLog). No value is copied.
//  2. Commit: an exclusive prefix sum over parts, in part order, gives every
//     (relation, server) pair its final size and every part its disjoint
//     range within it; each received fragment is allocated once, at its
//     exact size, as one arena it adopts (Relation.AdoptColumns), with the
//     rows of a fragment the round accumulates onto copied in first; then
//     the parts scatter into their ranges with no locks.
//
// Nothing touches a fragment or a load counter before the commit, which
// runs only once every send part of the round was routed cleanly, so a
// torn or canceled round is discarded by dropping its logs. A fragment
// holds its rows in (part, row) order — exactly the order a serial delivery
// appends them — whatever GOMAXPROCS or Cluster.Senders is.
package mpc

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/data"
	"repro/internal/par"
)

// partLog is the route pass's record of one send part: one int32 record
// per routed row or run of rows, in row order, then one (server, count)
// pair per server the part reaches. A record is either s ≥ 0 — one row to
// server s, the common case — or -n, k and k servers: the next n rows, each
// to all k (a multi-destination row has n = 1, a uniform span n = its
// length). The commit's prefix pass overwrites each pair's count with the
// part's first row in that server's fragment.
type partLog struct {
	log  []int32
	recs int // log[:recs] are the records, log[recs:] the pairs
	recv int // index into commState.rels
}

// logBudget bounds the route-log storage (int32 entries) a cluster retains
// between rounds; a larger round allocates its logs afresh and drops them,
// so one giant round doesn't pin its routed volume on a pooled cluster.
const logBudget = 32 << 10

// recvSlot is one (relation, server) pair of the round being committed.
type recvSlot struct {
	// rows is -1 until a part reaches the pair, then the running prefix sum,
	// and finally the fragment's size.
	rows int
	old  *data.Relation // the fragment the round accumulates onto, if any
	vals []int64        // the fragment's arena: column a is vals[a*rows:][:rows]
}

// put writes rows [row, row+n) of cols into the fragment from its row at.
func (sl *recvSlot) put(at int, cols [][]int64, row, n int) {
	for a, col := range cols {
		if dst := sl.vals[a*sl.rows+at:]; n == 1 {
			dst[0] = col[row]
		} else {
			copy(dst, col[row:row+n])
		}
	}
}

// commWorker is one worker's reusable state.
type commWorker struct {
	// count is indexed by server: the part's rows per server while routing,
	// the part's next row in each fragment while scattering; all zero
	// between parts.
	count   []int
	touched []int   // servers with a nonzero count, in first-touch order
	log     []int32 // the log of the part being routed
	dst     []int
	dedup   dedupSet
	span    SpanRoute // CompileSpan scratch, reused across spans
}

// commState is the cluster-owned engine scratch, reused across rounds.
type commState struct {
	workers []*commWorker
	arena   []int32          // retained route-log storage, at most logBudget entries
	rels    []*data.Relation // per receiving name, its first part's relation
	slots   []recvSlot       // len(rels)·P, relation-major
	cols    [][]int64        // AdoptColumns header scratch
}

// parallel runs fn on par.Workers(n) workers, each with its pooled state.
func (c *Cluster) parallel(n int, fn func(w *commWorker, next func() int)) {
	st, workers := &c.comm, par.Workers(n)
	for len(st.workers) < workers {
		st.workers = append(st.workers, &commWorker{})
	}
	par.For(workers, func(i int, next func() int) {
		w := st.workers[i]
		if len(w.count) < c.P {
			w.count = make([]int, c.P)
		}
		fn(w, next)
	})
}

// route runs the route pass and returns one log per part. It writes no
// fragment and no load counter, so dropping the logs discards the round.
func (c *Cluster) route(parts []sendPart, router Router) ([]partLog, error) {
	var errOnce sync.Once
	var routeErr error
	report := func(err error) {
		errOnce.Do(func() { routeErr = err })
	}
	// Presize every log to one record per row plus one pair per server the
	// part can reach, carved from one buffer: the retained arena when the
	// round fits in it.
	logCap := func(part sendPart) int { return part.hi - part.lo + 2*min(part.hi-part.lo, c.P) }
	need := 0
	for _, part := range parts {
		need += logCap(part)
	}
	st := &c.comm
	buf := st.arena
	if need > logBudget {
		buf = make([]int32, need)
	} else if cap(buf) < need {
		st.arena = make([]int32, need)
		buf = st.arena
	}
	logs := make([]partLog, len(parts))
	for i, part := range parts {
		n := logCap(part)
		logs[i].log, buf = buf[:0:n], buf[n:]
	}
	c.parallel(len(parts), func(w *commWorker, next func() int) {
		w.route(c, parts, logs, next, router, report)
	})
	return logs, routeErr
}

// route is one worker's share of the route pass: claim parts off the shared
// counter until none remain, logging part pi into logs[pi].
func (w *commWorker) route(c *Cluster, parts []sendPart, logs []partLog, next func() int, router Router, report func(error)) {
	r := SenderRouter(router)
	sr, spannable := r.(SpanRouter)
	for {
		pi := next()
		if pi >= len(parts) {
			return
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
				return
			}
		}
		part := parts[pi]
		w.log = logs[pi].log
		if idx := part.rel.Partitions(); spannable && idx != nil && sr.SpansAttr(part.rel, idx.Attr) {
			w.routeSpans(c, part, idx, sr, report)
		} else {
			w.routeRows(c, part.rel, part.lo, part.hi, r, report)
		}
		logs[pi].recs = len(w.log)
		for _, server := range w.touched {
			w.log = append(w.log, int32(server), int32(w.count[server]))
			w.count[server] = 0
		}
		w.touched = w.touched[:0]
		logs[pi].log, w.log = w.log, nil
	}
}

// routeRows routes rows [lo, hi) of rel one tuple at a time — the general
// path for unpartitioned relations, light regions, uncovered tails, and
// declined spans.
//
//skewlint:noalloc
func (w *commWorker) routeRows(c *Cluster, rel *data.Relation, lo, hi int, r Router, report func(error)) {
	for row := lo; row < hi; row++ {
		w.dst = r.Destinations(rel, row, w.dst[:0])
		w.logRow(c, w.dst, report)
	}
}

// routeSpans routes one send part of a partitioned relation partition-wise:
// the light prefix and the uncovered tail per-tuple, each heavy span through
// one CompileSpan call — one run record when the route is uniform, a
// pre-resolved per-row closure otherwise.
func (w *commWorker) routeSpans(c *Cluster, part sendPart, idx *data.PartitionIndex, sr SpanRouter, report func(error)) {
	rel := part.rel
	lo, hi := part.lo, part.hi
	if lo < idx.LightEnd {
		w.routeRows(c, rel, lo, min(hi, idx.LightEnd), sr, report)
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
		switch {
		case !sr.CompileSpan(rel, idx.Attr, sp.Value, &w.span):
			w.routeRows(c, rel, slo, shi, sr, report)
		case w.span.PerRow != nil:
			w.routePerRow(c, slo, shi, w.span.PerRow, report)
		default:
			w.logRun(shi-slo, w.valid(c, w.span.Dests, report))
		}
	}
	if hi > idx.Rows {
		w.routeRows(c, rel, max(lo, idx.Rows), hi, sr, report)
	}
	// Don't pin the last compiled closure (and whatever it captured) on the
	// pooled worker past the round.
	w.span.PerRow = nil
}

// routePerRow routes rows [lo, hi) through a compiled per-row closure.
//
//skewlint:noalloc
func (w *commWorker) routePerRow(c *Cluster, lo, hi int, perRow func(row int, dst []int) []int, report func(error)) {
	for row := lo; row < hi; row++ {
		w.dst = perRow(row, w.dst[:0])
		w.logRow(c, w.dst, report)
	}
}

// logRow records one row's destinations.
//
//skewlint:noalloc
func (w *commWorker) logRow(c *Cluster, dst []int, report func(error)) {
	if dst = w.valid(c, dst, report); len(dst) != 1 {
		w.logRun(1, dst)
		return
	}
	w.reserve(1)
	w.log = append(w.log, int32(dst[0]))
	w.note(dst[0], 1)
}

// logRun records n consecutive rows that all go to the servers in dst.
//
//skewlint:noalloc
func (w *commWorker) logRun(n int, dst []int) {
	w.reserve(2 + len(dst))
	w.log = append(w.log, int32(-n), int32(len(dst)))
	for _, server := range dst {
		w.log = append(w.log, int32(server))
		w.note(server, n)
	}
}

// reserve makes room for n more log entries. A part whose rows fan out
// outgrows its presized log; doubling keeps that to a few regrowths however
// large the part is.
func (w *commWorker) reserve(n int) {
	if cap(w.log)-len(w.log) < n {
		w.log = slices.Grow(w.log, max(n, len(w.log)))
	}
}

// valid deduplicates dst in place and drops, reporting, servers outside
// [0, P).
//
//skewlint:noalloc
func (w *commWorker) valid(c *Cluster, dst []int, report func(error)) []int {
	n := 0
	for _, server := range w.dedup.dedup(dst) {
		if server < 0 || server >= c.P {
			//skewlint:allow noalloc — error path: a malformed router has already broken the round
			report(fmt.Errorf("mpc: destination %d out of range [0,%d)", server, c.P))
			continue
		}
		dst[n] = server
		n++
	}
	return dst[:n]
}

// note adds rows to the current part's count for server.
func (w *commWorker) note(server, rows int) {
	if w.count[server] == 0 {
		w.touched = append(w.touched, server)
	}
	w.count[server] += rows
}

// commit delivers a cleanly routed round: charge the loads and size every
// receiving fragment in one prefix pass over the parts, allocate and
// install each fragment once, and scatter the parts into their ranges in
// parallel.
func (c *Cluster) commit(parts []sendPart, logs []partLog) {
	st := &c.comm
	p := c.P
	for i, part := range parts {
		r := slices.IndexFunc(st.rels, func(r *data.Relation) bool { return r.Name == part.rel.Name })
		if r < 0 {
			r = len(st.rels)
			st.rels = append(st.rels, part.rel)
		} else if st.rels[r].Arity != part.rel.Arity {
			panic(fmt.Sprintf("mpc: %s routed with arities %d and %d in one round", part.rel.Name, st.rels[r].Arity, part.rel.Arity))
		}
		logs[i].recv = r
	}
	if cap(st.slots) < len(st.rels)*p {
		st.slots = make([]recvSlot, len(st.rels)*p)
	}
	slots := st.slots[:len(st.rels)*p]
	for i := range slots {
		slots[i].rows = -1
	}
	for i := range logs {
		lg := &logs[i]
		rel := st.rels[lg.recv]
		bits := parts[i].rel.BitsPerTuple()
		pairs := lg.log[lg.recs:]
		for j := 0; j < len(pairs); j += 2 {
			server, n := int(pairs[j]), int(pairs[j+1])
			s := c.Servers[server]
			s.BitsIn += bits * int64(n)
			s.TuplesIn += int64(n)
			sl := &slots[lg.recv*p+server]
			if sl.rows < 0 {
				sl.old, sl.rows = s.Received[rel.Name], 0
				if sl.old != nil && sl.old.Arity != rel.Arity {
					panic(fmt.Sprintf("mpc: %s: delivering arity %d onto a fragment of arity %d", rel.Name, rel.Arity, sl.old.Arity))
				} else if sl.old != nil {
					sl.rows = sl.old.Size()
				}
			}
			start := sl.rows
			if sl.rows += n; sl.rows > math.MaxInt32 {
				panic(fmt.Sprintf("mpc: fragment %s on server %d would hold %d rows, past 2^31-1", rel.Name, server, sl.rows))
			}
			pairs[j+1] = int32(start)
		}
	}

	// The fragments are installed before the scatter fills them: nothing
	// reads a server's fragments until the round returns.
	for i := range slots {
		sl := &slots[i]
		if sl.rows < 0 {
			continue
		}
		rel := st.rels[i/p]
		domain := rel.Domain
		if sl.old != nil {
			domain = sl.old.Domain
		}
		sl.vals = make([]int64, rel.Arity*sl.rows)
		cols := st.cols[:0]
		for a := 0; a < rel.Arity; a++ {
			cols = append(cols, sl.vals[a*sl.rows:(a+1)*sl.rows])
			if sl.old != nil {
				copy(cols[a], sl.old.Column(a))
			}
		}
		frag := data.NewRelation(rel.Name, rel.Arity, domain)
		frag.AdoptColumns(cols, sl.rows)
		c.Servers[i%p].Received[rel.Name] = frag
		clear(cols)
		st.cols = cols
	}
	c.parallel(len(parts), func(w *commWorker, next func() int) {
		for pi := next(); pi < len(parts); pi = next() {
			r := logs[pi].recv * p
			w.scatter(parts[pi], &logs[pi], slots[r:r+p])
		}
	})
	clear(slots)
	clear(st.rels)
	st.rels = st.rels[:0]
}

// scatter copies one committed part's rows into its ranges of the receiving
// fragments (slots, indexed by server). Parts own disjoint ranges, so
// workers need no locks.
//
//skewlint:noalloc
func (w *commWorker) scatter(part sendPart, lg *partLog, slots []recvSlot) {
	at := w.count
	pairs := lg.log[lg.recs:]
	for j := 0; j < len(pairs); j += 2 {
		at[pairs[j]] = int(pairs[j+1])
	}
	cols := part.rel.Columns()
	log, row := lg.log[:lg.recs], part.lo
	for i := 0; i < len(log); {
		if v := log[i]; v >= 0 {
			slots[v].put(at[v], cols, row, 1)
			at[v]++
			i++
			row++
			continue
		}
		n, k := int(-log[i]), int(log[i+1])
		for _, s := range log[i+2 : i+2+k] {
			slots[s].put(at[s], cols, row, n)
			at[s] += n
		}
		i += 2 + k
		row += n
	}
	for j := 0; j < len(pairs); j += 2 {
		at[pairs[j]] = 0
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
