// The count-then-scatter communication engine. A round is two passes of
// internal/par workers claiming sendParts off a shared counter:
//
//  1. Route: each part records where its rows go — one code per row, the
//     destination sets its rows share (interned once per worker) and sparse
//     per-server row counts (partLog). No value is copied.
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

// partLog is the route pass's record of one send part. codes holds one
// int32 per row, in row order: s ≥ 0 sends the row to server s alone, the
// common case; -1-off sends it to every server of the set stored at sets[off]
// as k, s₁…s_k. Rows with the same destinations share one set, interned by
// the worker that routed the part (sets is its scratch), so the log is as
// long as the part whatever its fan-out. pairs holds one (server, count)
// pair per server the part reaches; the commit's prefix pass overwrites each
// count with the part's first row in that server's fragment.
type partLog struct {
	codes []int32
	sets  []int32
	pairs []int32
	recv  int // index into commState.rels
}

// logBudget bounds the route-log storage (int32 entries) a cluster retains
// between rounds; a larger round allocates its logs afresh and drops them,
// so one giant round doesn't pin its routed volume on a pooled cluster.
// Likewise a worker drops its set scratch when a round leaves it past
// setBudget entries, and a round of over logBudget/512 parts its log headers.
const (
	logBudget = 32 << 10
	setBudget = logBudget / 8
)

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
	codes   []int32 // the codes of the part being routed
	dst     []int
	seen    []uint32 // per server, the stamp of the row that last named it
	stamp   uint32
	span    SpanRoute // CompileSpan scratch, reused across spans

	// sets holds each destination set the worker met in the round, once, as
	// rows, k, s₁…s_k, where rows counts the part being routed; used lists
	// the offsets of the sets the part reached. index is an
	// open-addressing table of nsets set offsets (0 is a free slot): a set
	// with hash h sits in the first free slot from h>>shift on.
	sets  []int32
	used  []int32
	index []int32
	nsets int
	shift uint
}

// commState is the cluster-owned engine scratch, reused across rounds.
type commState struct {
	workers []*commWorker
	arena   []int32          // retained route-log storage, at most logBudget entries
	logs    []partLog        // the round's log headers, one per part
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
			w.count, w.seen = make([]int, c.P), make([]uint32, c.P)
		}
		if w.index == nil {
			w.index, w.shift = make([]int32, 64), 64-6
		}
		fn(w, next)
	})
}

// route runs the route pass and returns one log per part. It writes no
// fragment and no load counter, so dropping the logs discards the round.
func (c *Cluster) route(parts []sendPart) ([]partLog, error) {
	var errOnce sync.Once
	var routeErr error
	report := func(err error) {
		errOnce.Do(func() { routeErr = err })
	}
	// Every part gets one code per row and room for pairs to min(rows, P)
	// servers, carved from one buffer: the retained arena when the round
	// fits in it. Only a part whose few rows fan out wider outgrows its pairs.
	logCap := func(part sendPart) (int, int) { return part.hi - part.lo, 2 * min(part.hi-part.lo, c.P) }
	need := 0
	for _, part := range parts {
		n, m := logCap(part)
		need += n + m
	}
	st := &c.comm
	buf := st.arena
	if need > logBudget {
		buf = make([]int32, need)
	} else if cap(buf) < need {
		st.arena = make([]int32, need)
		buf = st.arena
	}
	if cap(st.logs) < len(parts) {
		st.logs = make([]partLog, len(parts))
	}
	logs := st.logs[:len(parts)]
	for i, part := range parts {
		n, m := logCap(part)
		logs[i].codes, logs[i].pairs, buf = buf[:0:n], buf[n:n:n+m], buf[n+m:]
	}
	c.parallel(len(parts), func(w *commWorker, next func() int) {
		w.route(c, parts, logs, next, report)
	})
	return logs, routeErr
}

// endRound releases what the round held: the log headers are cleared so
// that no round pins another's logs, and a worker's set scratch past
// setBudget is dropped.
func (st *commState) endRound() {
	clear(st.logs)
	if cap(st.logs) > logBudget/512 {
		st.logs = nil
	}
	for _, w := range st.workers {
		if cap(w.sets)+cap(w.used)+len(w.index) > setBudget {
			w.sets, w.used, w.index = nil, nil, nil
		}
	}
}

// route is one worker's share of the route pass: claim parts off the shared
// counter until none remain, logging part pi into logs[pi].
func (w *commWorker) route(c *Cluster, parts []sendPart, logs []partLog, next func() int, report func(error)) {
	clear(w.index)
	w.sets, w.nsets = w.sets[:0], 0
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
		w.codes = logs[pi].codes
		switch idx := part.rel.Partitions(); {
		case part.route == nil:
			w.logRows(c, part.hi-part.lo, nil, report)
		case idx != nil:
			w.routeSpans(c, part, idx, report)
		default:
			w.routeRows(c, part.route, part.rel.Columns(), part.lo, part.hi, report)
		}
		w.endPart(&logs[pi])
	}
}

// endPart completes the part being routed into lg: its codes, the sets, and
// a (server, count) pair per server reached, each set's rows counted once
// for each of its servers.
func (w *commWorker) endPart(lg *partLog) {
	for _, off := range w.used {
		for _, server := range w.sets[off+1 : off+1+w.sets[off]] {
			w.note(int(server), int(w.sets[off-1]))
		}
		w.sets[off-1] = 0
	}
	pairs := lg.pairs
	for _, server := range w.touched {
		pairs = append(pairs, int32(server), int32(w.count[server]))
		w.count[server] = 0
	}
	lg.codes, lg.sets, lg.pairs = w.codes, w.sets, pairs
	w.codes, w.touched, w.used = nil, w.touched[:0], w.used[:0]
}

// routeRows routes rows [lo, hi) of a relation with columns cols through
// its bound route — the general path for unpartitioned relations, light
// regions, uncovered tails, and declined spans. Servers answers the block
// straight into the part's code log, and one pass counts each server; a -1
// row, or an answer outside [0, P), goes through valid and intern, its code
// written in place.
//
//skewlint:noalloc
func (w *commWorker) routeRows(c *Cluster, r Route, cols [][]int64, lo, hi int, report func(error)) {
	n := len(w.codes)
	w.codes = w.codes[:n+hi-lo]
	codes := w.codes[n:]
	r.Servers(cols, lo, hi, codes)
	for i, s := range codes {
		if uint32(s) < uint32(c.P) {
			w.note(int(s), 1)
			continue
		}
		if w.dst = append(w.dst[:0], int(s)); s < 0 {
			w.dst = r.Destinations(cols, lo+i, w.dst[:0])
		}
		codes[i] = w.code(c, 1, w.dst, report)
	}
}

// routeSpans routes one send part of a partitioned relation partition-wise:
// the light prefix, the uncovered tail and declined spans per-tuple, each
// other heavy span through one CompileSpan call — one code for all its rows
// when the route is uniform, a pre-resolved per-row closure otherwise.
func (w *commWorker) routeSpans(c *Cluster, part sendPart, idx *data.PartitionIndex, report func(error)) {
	r, cols := part.route, part.rel.Columns()
	lo, hi := part.lo, part.hi
	if lo < idx.LightEnd {
		w.routeRows(c, r, cols, lo, min(hi, idx.LightEnd), report)
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
		case !r.CompileSpan(cols, idx.Attr, sp.Value, &w.span):
			w.routeRows(c, r, cols, slo, shi, report)
		case w.span.PerRow != nil:
			w.routePerRow(c, slo, shi, w.span.PerRow, report)
		default:
			w.logRows(c, shi-slo, w.span.Dests, report)
		}
	}
	if hi > idx.Rows {
		w.routeRows(c, r, cols, max(lo, idx.Rows), hi, report)
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
		w.logRows(c, 1, w.dst, report)
	}
}

// logRows records n consecutive rows that all go to the servers in dst.
//
//skewlint:noalloc
func (w *commWorker) logRows(c *Cluster, n int, dst []int, report func(error)) {
	code := w.code(c, n, dst, report)
	for ; n > 0; n-- {
		w.codes = append(w.codes, code)
	}
}

// code counts n rows going to the servers in dst and returns their code.
//
//skewlint:noalloc
func (w *commWorker) code(c *Cluster, n int, dst []int, report func(error)) int32 {
	if dst = w.valid(c, dst, report); len(dst) == 1 {
		w.note(dst[0], n)
		return int32(dst[0])
	}
	return w.intern(dst, n)
}

// intern adds n rows to the destination set dst (deduplicated, not a single
// server) and returns its code, storing dst the first time the worker meets
// it in the round.
//
//skewlint:noalloc
func (w *commWorker) intern(dst []int, n int) int32 {
	slot := int(setHash(dst) >> w.shift)
	for w.index[slot] != 0 && !w.holds(w.index[slot], dst) {
		slot = (slot + 1) & (len(w.index) - 1)
	}
	off := w.index[slot]
	if off == 0 {
		off = int32(len(w.sets)) + 1
		w.index[slot] = off
		//skewlint:allow noalloc — growth: the worker's set scratch is retained across rounds
		w.sets = append(w.sets, 0, int32(len(dst)))
		for _, server := range dst {
			//skewlint:allow noalloc — growth, as above
			w.sets = append(w.sets, int32(server))
		}
		if w.nsets++; 2*w.nsets > len(w.index) {
			w.growIndex()
		}
	}
	if w.sets[off-1] == 0 {
		//skewlint:allow noalloc — growth, as above
		w.used = append(w.used, off)
	}
	w.sets[off-1] += int32(n)
	return -1 - off
}

// holds reports whether the set stored at sets[off] is dst.
func (w *commWorker) holds(off int32, dst []int) bool {
	set := w.sets[off:]
	ok := int(set[0]) == len(dst)
	for j := 0; ok && j < len(dst); j++ {
		ok = int(set[1+j]) == dst[j]
	}
	return ok
}

// growIndex doubles the set index and re-slots the sets into it.
func (w *commWorker) growIndex() {
	old := w.index
	w.index, w.shift = make([]int32, 2*len(old)), w.shift-1
	for _, off := range old {
		if off != 0 {
			slot := int(setHash(w.sets[off+1:off+1+w.sets[off]]) >> w.shift)
			for w.index[slot] != 0 {
				slot = (slot + 1) & (len(w.index) - 1)
			}
			w.index[slot] = off
		}
	}
}

// setHash hashes a destination list.
func setHash[S int | int32](set []S) uint64 {
	h := uint64(len(set))
	for _, server := range set {
		h = (h + uint64(server)) * 0x9e3779b97f4a7c15
	}
	return h
}

// valid drops, reporting, servers outside [0, P) from dst, and duplicates
// (the model delivers a duplicate once), in place and keeping first
// occurrences: a server is a duplicate when seen holds the row's stamp.
//
//skewlint:noalloc
func (w *commWorker) valid(c *Cluster, dst []int, report func(error)) []int {
	if w.stamp++; w.stamp == 0 {
		clear(w.seen)
		w.stamp = 1
	}
	n := 0
	for _, server := range dst {
		switch {
		case server < 0 || server >= c.P:
			//skewlint:allow noalloc — error path: a malformed router has already broken the round
			report(fmt.Errorf("mpc: destination %d out of range [0,%d)", server, c.P))
		case w.seen[server] != w.stamp:
			w.seen[server] = w.stamp
			dst[n] = server
			n++
		}
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
		pairs := lg.pairs
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
// fragments (slots, indexed by server). Consecutive rows with one code go
// as one run, one copy per column and destination. Parts own disjoint
// ranges, so workers need no locks.
//
//skewlint:noalloc
func (w *commWorker) scatter(part sendPart, lg *partLog, slots []recvSlot) {
	at := w.count
	for j := 0; j < len(lg.pairs); j += 2 {
		at[lg.pairs[j]] = int(lg.pairs[j+1])
	}
	cols := part.rel.Columns()
	codes, row := lg.codes, part.lo
	for i := 0; i < len(codes); {
		code, n := codes[i], 1
		for i+n < len(codes) && codes[i+n] == code {
			n++
		}
		if code >= 0 {
			slots[code].put(at[code], cols, row, n)
			at[code] += n
		} else {
			set := lg.sets[-1-code:]
			for _, s := range set[1 : 1+set[0]] {
				slots[s].put(at[s], cols, row, n)
				at[s] += n
			}
		}
		i += n
		row += n
	}
	for j := 0; j < len(lg.pairs); j += 2 {
		at[lg.pairs[j]] = 0
	}
}
