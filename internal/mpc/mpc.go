// Package mpc simulates the Massively Parallel Communication model of
// Beame–Koutris–Suciu: p servers connected by private channels, computing
// in rounds of local computation interleaved with global communication.
// The load of a server is the number of bits it receives during the
// communication phase, exactly as the model defines it.
//
// The model charges only for bits received, so the simulator keeps its own
// costs out of the way: the communication phase runs on a count-then-scatter
// engine (see comm.go) on internal/par's O(GOMAXPROCS) workers, regardless of
// the virtual-server count, and allocates each received fragment once,
// at its exact size, holding its rows in a deterministic order; clusters are
// reusable (Resize) so executors can pool them instead of reallocating Θ(p)
// servers per run.
//
// The one-round restriction is enforced structurally: a Router decides the
// destinations of a tuple from the tuple alone plus global statistics fixed
// before the round, never from other servers' data. It has one method,
// which reads the tuple in place as a row of its relation.
package mpc

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/data"
	"repro/internal/par"
)

// Router decides which servers receive a tuple of a relation during the
// communication phase. Destinations reads row `row` of rel in place (its
// name and column values, never a materialized row view) and must be a
// pure function of (rel.Name, the row's values) and pre-round statistics.
// It appends server IDs to dst and returns it (allowing allocation-free
// reuse); IDs must lie in [0, P). Duplicate IDs are delivered once.
//
// A router is an immutable plan-time table: Destinations (and, for a
// SpanRouter, SpansAttr and CompileSpan) must be safe for concurrent use,
// because one instance serves every route worker of a round and every
// standing query built on its plan.
type Router interface {
	Destinations(rel *data.Relation, row int, dst []int) []int
}

// RouterFunc adapts a function to the Router interface.
type RouterFunc func(rel *data.Relation, row int, dst []int) []int

// Destinations implements Router.
func (f RouterFunc) Destinations(rel *data.Relation, row int, dst []int) []int {
	return f(rel, row, dst)
}

// SpanRoute is the compiled routing of one heavy partition span — a
// contiguous run of rows sharing one value on the partition attribute.
// Exactly one of the two forms is produced per span:
//
//   - Uniform (PerRow nil): every row of the span goes to Dests. The engine
//     logs Dests' one code for every row, and its scatter ships the run with
//     one copy per column and destination — no per-row router work at all.
//     An empty Dests ships nothing (a relation the router does not route).
//   - PerRow non-nil: rows still need a per-row dimension (a grid row hash
//     on a non-partition attribute), but the span-level decision — which
//     hitter plan, which block — is resolved once at compile time. PerRow
//     appends to dst and returns it, like Router.Destinations, and is
//     called only from the compiling worker's goroutine.
//
// Both slices may be retained and reused by the engine across spans.
type SpanRoute struct {
	Dests  []int
	PerRow func(row int, dst []int) []int
}

// SpanRouter is an optional Router extension for partition-wise routing
// over heavy-value runs (data.PartitionIndex). When a routed relation
// carries a partition index on attribute attr and the router acknowledges
// that attribute via SpansAttr, the delivery engine resolves each heavy
// span with one CompileSpan call and ships it wholesale; rows in the light
// region and the uncovered tail always take the per-tuple path.
//
// Contract: for every row whose value at attr is v, the compiled route must
// deliver to exactly the servers Destinations would (order may differ;
// duplicates are delivered once either way). CompileSpan may return false to
// decline a span (the engine falls back to per-tuple for those rows). Like
// Destinations, CompileSpan runs concurrently on one shared instance, and so
// do the PerRow closures it returns.
type SpanRouter interface {
	Router
	// SpansAttr reports whether CompileSpan understands spans of rel
	// partitioned on attribute attr.
	SpansAttr(rel *data.Relation, attr int) bool
	// CompileSpan resolves the routing of the heavy run of value v at attr
	// into route (whose fields arrive zeroed: Dests empty, PerRow nil).
	CompileSpan(rel *data.Relation, attr int, v int64, route *SpanRoute) bool
}

// Server is one MPC worker: it accumulates the relation fragments routed to
// it and tracks its load in bits and tuples.
type Server struct {
	ID       int
	Received map[string]*data.Relation
	BitsIn   int64
	TuplesIn int64
}

// Fragment returns this server's fragment of the named relation (possibly
// empty but never nil after a round that routed that relation).
func (s *Server) Fragment(name string) *data.Relation { return s.Received[name] }

// Install makes out the server's sole resident fragment (under the
// relation's own name), dropping every fragment it held; a nil out leaves
// the server empty. Resident-style compute bodies end with it: between
// pipeline stages each server holds exactly its share of the current
// intermediate, ready to be moved by ShuffleResident.
func (s *Server) Install(out *data.Relation) {
	clear(s.Received)
	if out != nil {
		s.Received[out.Name] = out
	}
}

// Cluster is a set of p MPC servers. A cluster is reusable: Resize
// re-targets it to a different server count while retaining every server
// (and its map storage) created under earlier sizes, which is what lets
// executors pool clusters across runs instead of reallocating them.
type Cluster struct {
	P       int
	Servers []*Server
	// Senders is the number of input partitions each routed relation is
	// split into (the "input servers" of the model holding uniform
	// partitions); defaults to DefaultSenders when zero. It controls work
	// granularity only — the goroutine count is bounded by GOMAXPROCS —
	// and never affects where tuples are delivered.
	Senders int
	// ResidentChunk caps the rows one send part carries out of a resident
	// fragment in ShuffleResident; defaults to DefaultResidentChunkTuples
	// when zero. Like Senders it controls work granularity only, never
	// where tuples are delivered.
	ResidentChunk int
	// Ctx, when non-nil, is checked at in-round checkpoints: the route
	// workers test it per claimed send part, so canceling mid-round aborts
	// the round instead of running it to completion. The round returns the
	// context's error and the engine drops its route logs, leaving
	// fragments and load counters untouched.
	Ctx context.Context
	// Faults, when non-nil, injects the seeded fault schedule (torn rounds,
	// failed compute, stragglers); see Faults. Executors set it per run and
	// Reset clears it.
	Faults *Faults

	// pool holds every server ever created for this cluster; Servers is
	// pool[:P]. Servers keep their identity (and Received map buckets)
	// across Resize/Reset so pooled clusters stop allocating at steady
	// state.
	pool []*Server
	// comm is the engine's reusable scratch (worker tables, retained
	// route-log storage, the commit's per-(relation, server) table).
	comm commState
	// curRound is the Faults round number of the communication phase in
	// flight (set by communicate before workers start; workers only read).
	curRound uint64
	// curAttempt is the attempt number (1-based) of the communication round
	// in flight: MarkReplay makes the next communicate keep curRound and
	// advance this instead of drawing a new round number.
	curAttempt uint64
	// replayRound flags the next communicate call as a replay; communicate
	// consumes it.
	replayRound bool
	// curPhase/phaseAttempt mirror curRound/curAttempt for compute phases:
	// re-running a phase's failed servers advances the attempt, never the
	// phase number.
	curPhase     uint64
	phaseAttempt uint64
	// faultMu guards the failed-server list ComputeOn collects.
	faultMu sync.Mutex
	// faultErr is ComputeResident's first compute failure (frozen.go).
	faultErr error
}

// DefaultSenders is the per-relation partition count used when
// Cluster.Senders is zero.
const DefaultSenders = 8

// NewCluster returns a cluster of p idle servers.
func NewCluster(p int) *Cluster {
	c := &Cluster{}
	c.Resize(p)
	return c
}

// Resize re-targets the cluster to exactly p servers and resets all
// fragments and load counters, reusing the servers (and their Received
// maps' storage) from every earlier size. It returns c for chaining.
func (c *Cluster) Resize(p int) *Cluster {
	if p < 1 {
		panic(fmt.Sprintf("mpc: p = %d", p))
	}
	for len(c.pool) < p {
		c.pool = append(c.pool, &Server{ID: len(c.pool), Received: make(map[string]*data.Relation)})
	}
	// Clear the full pool, not just the new view: servers parked beyond p
	// must not pin fragments from a larger earlier run.
	for _, s := range c.pool {
		clear(s.Received)
		s.BitsIn = 0
		s.TuplesIn = 0
	}
	c.P = p
	c.Servers = c.pool[:p]
	c.Ctx = nil
	c.Faults = nil
	c.faultErr = nil
	c.curRound = 0
	c.curAttempt = 0
	c.replayRound = false
	c.curPhase = 0
	c.phaseAttempt = 0
	return c
}

// Capacity returns the number of servers the cluster has ever allocated —
// the largest p Resize can serve without growing.
func (c *Cluster) Capacity() int { return len(c.pool) }

// RoundRelations executes the communication phase: every tuple of every
// given relation is routed by router and delivered to its destination
// servers. Loads accumulate across calls, so a multi-step single-round
// algorithm may route in several calls before computing.
//
// RoundRelations returns an error if the router emits a destination outside
// [0, P); tuples with bad destinations are dropped and the first error is
// reported after the phase drains.
func (c *Cluster) RoundRelations(router Router, rels ...*data.Relation) error {
	senders := c.Senders
	if senders <= 0 {
		senders = DefaultSenders
	}
	var parts []sendPart
	for _, rel := range rels {
		parts = appendChunkedParts(parts, rel, (rel.Size()+senders-1)/senders)
	}
	return c.communicate(parts, router)
}

// DefaultResidentChunkTuples caps the rows one send part carries out of a
// resident fragment when Cluster.ResidentChunk is zero. A skewed
// intermediate concentrated on one hot server used to enter the next round
// as a single part routed by a single worker, serializing the round;
// chunking splits it so the whole worker pool routes it in parallel. The
// default sits at the flat bottom of BenchmarkResidentChunk's sweep: small
// enough that one hot fragment fans out across the worker pool, large
// enough that per-part overhead stays negligible.
const DefaultResidentChunkTuples = 1024

// ShuffleResident executes a communication phase whose senders are the
// cluster's own servers: each server routes its resident fragment of every
// named relation through router, server-to-server, and afterwards holds
// exactly the fragments newly delivered to it. This is how a multi-round
// pipeline moves an intermediate result into the next round's layout
// without concatenating it at the coordinator and re-ingesting it as a
// fresh database. Loads accumulate exactly as in RoundRelations (received
// bits are the model's load, whatever server sent them). Fragments larger
// than the chunking threshold are split into multiple send parts.
func (c *Cluster) ShuffleResident(router Router, names ...string) error {
	chunk := c.ResidentChunk
	if chunk <= 0 {
		chunk = DefaultResidentChunkTuples
	}
	type detached struct {
		s    *Server
		frag *data.Relation
	}
	var parts []sendPart
	var moved []detached
	for _, s := range c.Servers {
		for _, name := range names {
			frag, ok := s.Received[name]
			if !ok {
				continue
			}
			// Detach before routing: the commit accumulates onto whatever
			// s.Received[name] holds, so the outgoing fragment must no
			// longer be reachable there.
			delete(s.Received, name)
			moved = append(moved, detached{s, frag})
			parts = appendChunkedParts(parts, frag, chunk)
		}
	}
	err := c.communicate(parts, router)
	if err != nil {
		// The engine discarded the round wholesale, so re-attaching the
		// outgoing fragments restores the exact pre-round state and the
		// shuffle can simply be re-driven.
		for _, d := range moved {
			d.s.Received[d.frag.Name] = d.frag
		}
	}
	return err
}

// sendPart is one unit of routing work: rows [lo, hi) of one relation (an
// input-server partition in RoundRelations, a resident server fragment — or
// a chunk of one — in ShuffleResident).
type sendPart struct {
	rel    *data.Relation
	lo, hi int
}

// appendChunkedParts appends rel split into send parts of at most chunk
// rows each — and at most 2^31-1, so a part's route-log counts fit in int32;
// empty relations contribute nothing.
func appendChunkedParts(parts []sendPart, rel *data.Relation, chunk int) []sendPart {
	chunk = max(1, min(chunk, math.MaxInt32))
	m := rel.Size()
	for lo := 0; lo < m; lo += chunk {
		hi := min(lo+chunk, m)
		parts = append(parts, sendPart{rel: rel, lo: lo, hi: hi})
	}
	return parts
}

// MarkReplay flags the next communication round as a replay of the round
// most recently driven: the fault schedule keeps the same round number and
// advances the attempt dimension, so a re-driven round draws a fresh
// injected-fault decision instead of deterministically re-tearing. The
// executor calls this after a torn round before re-driving it.
func (c *Cluster) MarkReplay() { c.replayRound = true }

// communicate runs one communication phase as a transaction: the route
// pass only logs where rows go, and the commit — the one writer of
// fragments and load counters — runs only once every part of the round has
// arrived. A torn round (the injected fault: only a prefix of the parts
// arrives) or a mid-round context cancellation drops the logs, leaving
// fragments and load counters bit-identical to the pre-round state.
func (c *Cluster) communicate(parts []sendPart, router Router) error {
	if len(parts) == 0 {
		c.replayRound = false
		return nil
	}
	torn := false
	total := len(parts)
	if f := c.Faults; f != nil {
		if c.replayRound && c.curRound > 0 {
			c.curAttempt++
		} else {
			c.curRound = f.nextRound()
			c.curAttempt = 1
		}
		if f.WouldTearRoundAttempt(c.curRound, c.curAttempt) {
			torn = true
			parts = parts[:total/2]
		}
	}
	c.replayRound = false
	defer c.comm.endRound()
	logs, err := c.route(parts, router)
	if err != nil {
		return err
	}
	if torn {
		return fmt.Errorf("mpc: round %d attempt %d delivered %d of %d parts: %w",
			c.curRound, c.curAttempt, len(parts), total, ErrTornRound)
	}
	c.commit(parts, logs)
	return nil
}

// ComputeOn is the one local-computation driver. With a nil ids it opens a
// new compute phase and runs body on every server; with a non-nil ids it
// runs body on exactly those servers as the next attempt of the current
// phase — compute is a pure function of a server's fragments, so a phase
// that lost servers re-runs only those while the survivors' results stand.
// A server whose compute fails under the injected schedule never sees body
// (its fragments stay untouched); the failed IDs are returned in ascending
// order. Servers are claimed by par.Each's workers, min(GOMAXPROCS,
// servers) of them, never Θ(Virtual). Load counters are untouched: local
// computation is free in the MPC model.
func (c *Cluster) ComputeOn(ids []int, body func(s *Server)) []int {
	var flt *Faults
	if f := c.Faults; f != nil && f.ComputeFail > 0 {
		flt = f
		if ids == nil {
			c.curPhase, c.phaseAttempt = f.nextComputePhase(), 1
		} else {
			c.phaseAttempt++
		}
	}
	n := c.P
	if ids != nil {
		n = len(ids)
	}
	var failed []int
	run := func(i int) {
		if ids != nil {
			i = ids[i]
		}
		s := c.Servers[i]
		if flt != nil && flt.WouldFailComputeAttempt(c.curPhase, c.phaseAttempt, s.ID) {
			c.faultMu.Lock()
			failed = append(failed, s.ID)
			c.faultMu.Unlock()
			return
		}
		body(s)
	}
	par.Each(n, run)
	slices.Sort(failed)
	return failed
}

// LoadSummary aggregates per-server loads after one or more rounds.
type LoadSummary struct {
	MaxBits     int64
	MaxTuples   int64
	TotalBits   int64
	TotalTuples int64
	P           int
}

// Loads summarizes the current per-server loads.
func (c *Cluster) Loads() LoadSummary {
	var s LoadSummary
	s.P = c.P
	for _, sv := range c.Servers {
		if sv.BitsIn > s.MaxBits {
			s.MaxBits = sv.BitsIn
		}
		if sv.TuplesIn > s.MaxTuples {
			s.MaxTuples = sv.TuplesIn
		}
		s.TotalBits += sv.BitsIn
		s.TotalTuples += sv.TuplesIn
	}
	return s
}

// GiniCoefficient returns the Gini index of the per-server bit loads: 0
// for perfectly balanced, approaching 1 when one server holds everything.
// A direct scalar for "how skewed did the communication end up".
func (c *Cluster) GiniCoefficient() float64 {
	n := len(c.Servers)
	if n == 0 {
		return 0
	}
	loads := make([]int64, n)
	var total int64
	for i, s := range c.Servers {
		loads[i] = s.BitsIn
		total += s.BitsIn
	}
	if total == 0 {
		return 0
	}
	slices.Sort(loads)
	var weighted float64
	for i, l := range loads {
		weighted += float64(i+1) * float64(l)
	}
	return (2*weighted)/(float64(n)*float64(total)) - float64(n+1)/float64(n)
}

// Reset clears all fragments and load counters. Received maps are retained
// (cleared, not reallocated), so a pooled cluster reaches steady state
// without per-run map churn. Per-run execution state — context, fault
// schedule, recorded fault — is dropped too, so a pooled cluster poisoned
// by an aborted round comes back clean.
func (c *Cluster) Reset() {
	for _, s := range c.Servers {
		clear(s.Received)
		s.BitsIn = 0
		s.TuplesIn = 0
	}
	c.Ctx = nil
	c.Faults = nil
	c.faultErr = nil
	c.curRound = 0
	c.curAttempt = 0
	c.replayRound = false
	c.curPhase = 0
	c.phaseAttempt = 0
}
