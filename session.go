package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/mpc"
)

// Config is the immutable configuration of a Session. The zero value is
// not usable: P must be at least 2.
type Config struct {
	// P is the physical server count queries execute on (≥ 2). Individual
	// calls may override it with WithP.
	P int
	// Seed pins every hash family the session derives; equal seeds make
	// runs reproducible.
	Seed uint64
	// PlanCacheCapacity bounds the plan cache: 0 means the default (64),
	// negative means unbounded.
	PlanCacheCapacity int
	// ConsiderMultiRound lets multi-round pipelines compete with the
	// one-round strategies on predicted cost in every unforced Exec.
	ConsiderMultiRound bool
	// ReplanDriftFactor arms adaptive re-planning: when an execution's
	// realized max load exceeds ReplanDriftFactor × the plan's predicted
	// bits and the database content has changed since the plan was built
	// (Database.Apply), the cached plan is marked stale and the next Exec
	// replans against current statistics, reporting Result.Replanned.
	// 0 disables re-planning; values in (0, 1) are rejected by Open.
	ReplanDriftFactor float64
	// MaxInFlight bounds the Exec calls executing concurrently: excess
	// calls wait in a FIFO queue (MaxQueue) and beyond that are shed with
	// ErrOverloaded. 0 means a generous default, max(2×GOMAXPROCS, 8);
	// negative disables the bound entirely (never queues, never sheds).
	MaxInFlight int
	// MaxQueue bounds the admission wait queue; waiting calls honor their
	// context. 0 means a default of max(4×effective MaxInFlight, 64);
	// negative means no queue — calls at capacity shed immediately.
	// Ignored when the in-flight bound is disabled.
	MaxQueue int
	// Faults, when non-nil, arms a seeded deterministic fault-injection
	// schedule (see Faults): injected torn rounds and failed computes are
	// recovered at round/server granularity within Retry's budget
	// (Result.Recovery) and then surface as ErrTornRound /
	// ErrComputeFailed. Robustness tests use it to drive every degradation
	// path without sleeps or real failures.
	Faults *Faults
	// Retry bounds each execution's fault recovery: the total attempts any
	// faulting round or compute phase may consume and the backoff between
	// them. The zero value is the default policy (3 attempts, jittered
	// exponential backoff from 1ms capped at 100ms); MaxAttempts < 0
	// disables recovery so faults surface on first occurrence.
	Retry Retry
	// BreakerThreshold arms the session's circuit breaker: after that many
	// consecutive executions ending in cluster-level faults (post-retry),
	// further Execs fail fast with ErrCircuitOpen while one probe execution
	// at a time tests whether the cluster recovered (see HealthStats). 0
	// disables the breaker; negative is rejected by Open.
	BreakerThreshold int
}

// Session is the serving-grade entry point: an Engine behind an immutable
// configuration, per-call functional options, context cancellation, and a
// plan cache that databases may mutate under (Database.Apply) with
// adaptive re-planning when realized loads drift from the statistics plans
// were frozen at. Sessions are safe for concurrent use.
//
// Execs read immutable snapshot epochs (Database.Snapshot) rather than
// holding the database's read lock, so queries never block Apply and Apply
// never blocks queries; and every Exec passes an admission gate
// (Config.MaxInFlight/MaxQueue) that sheds excess load with ErrOverloaded
// instead of letting latency collapse. See "Serving under overload" in
// DESIGN.md.
//
// Unlike the pre-Session Engine API, a Session never panics on invalid
// input: Open and Exec return errors.
type Session struct {
	eng  *core.Engine
	gate *core.Gate
}

// Open validates cfg and returns a Session.
func Open(cfg Config) (*Session, error) {
	eng, err := core.New(core.Config{
		P:                  cfg.P,
		Seed:               cfg.Seed,
		PlanCacheCapacity:  cfg.PlanCacheCapacity,
		ConsiderMultiRound: cfg.ConsiderMultiRound,
		DriftFactor:        cfg.ReplanDriftFactor,
		Faults:             cfg.Faults,
		Retry:              cfg.Retry,
		BreakerThreshold:   cfg.BreakerThreshold,
	})
	if err != nil {
		return nil, err
	}
	inflight, queue := admissionBounds(cfg.MaxInFlight, cfg.MaxQueue)
	return &Session{eng: eng, gate: core.NewGate(inflight, queue)}, nil
}

// admissionBounds resolves the configured admission limits to the gate's
// (capacity, queue) form. The defaults are deliberately generous — an
// unconfigured session behaves like the ungated one it used to be unless
// traffic is extreme.
func admissionBounds(maxInFlight, maxQueue int) (capacity, queue int) {
	switch {
	case maxInFlight < 0:
		return 0, 0 // unbounded
	case maxInFlight == 0:
		capacity = max(2*runtime.GOMAXPROCS(0), 8)
	default:
		capacity = maxInFlight
	}
	switch {
	case maxQueue < 0:
		return capacity, 0 // no queue: shed at capacity
	case maxQueue == 0:
		return capacity, max(4*capacity, 64)
	default:
		return capacity, maxQueue
	}
}

// Close drains and closes the session: new Exec calls and queued waiters
// fail with ErrSessionClosed, and Close blocks until every in-flight call has
// finished. Standing queries opened from the session are independent handles
// and are closed separately. Close is idempotent; it always returns nil
// (the error return is for future compatibility).
func (s *Session) Close() error {
	s.gate.Close()
	return nil
}

// AdmissionStats reports the session's admission-gate counters: calls
// admitted, queued, and shed, plus current in-flight and queue occupancy.
func (s *Session) AdmissionStats() AdmissionStats { return s.gate.Stats() }

// ExecOption is a per-call option for Session.Exec.
type ExecOption struct {
	apply func(*core.ExecOptions)
}

// WithStrategy forces the plan to use the given strategy instead of
// letting statistics pick one.
func WithStrategy(s Strategy) ExecOption {
	return ExecOption{func(o *core.ExecOptions) {
		forced := s
		o.Strategy = &forced
	}}
}

// WithoutCache bypasses the plan cache for this call: plan, execute,
// discard. Every data-dependent quantity (statistics, bounds) is still
// recomputed.
func WithoutCache() ExecOption {
	return ExecOption{func(o *core.ExecOptions) { o.NoCache = true }}
}

// WithP overrides the session's server count for this call (≥ 2). Plans
// are cached per p, so alternating p values coexist in the cache.
func WithP(p int) ExecOption {
	return ExecOption{func(o *core.ExecOptions) { o.P = p }}
}

// Exec plans and executes q over db, honoring ctx: cancellation is checked
// before planning, before the communication round, and between the rounds
// of a multi-round pipeline, returning ctx.Err() if it fires.
//
// Exec serves from the session's plan cache keyed by (query, database
// identity and schema, p, options that change plan selection) — database
// *content* is deliberately not part of the key, so plans survive
// Database.Apply deltas: a physical plan routes tuples by column position
// and stays correct for any content, merely tuned for the statistics it
// was planned with. Config.ReplanDriftFactor decides when "merely tuned"
// has drifted into "replan it".
//
// Exec first passes the session's admission gate: at most
// Config.MaxInFlight calls execute concurrently, at most Config.MaxQueue
// more wait FIFO (honoring ctx), and beyond that Exec sheds immediately
// with ErrOverloaded; after Session.Close it fails with ErrSessionClosed.
// Once admitted, Exec reads an immutable snapshot epoch of db
// (Database.Snapshot) — it never holds the database lock, so a slow query
// cannot block Database.Apply and a large Apply cannot stall queries; each
// Exec observes the epoch current at admission time (or, handed a
// snapshot, that snapshot).
func (s *Session) Exec(ctx context.Context, q *Query, db *Database, opts ...ExecOption) (Result, error) {
	o, err := s.admit(ctx, q, db, opts)
	if err != nil {
		return Result{}, err
	}
	defer s.gate.Leave()
	return s.eng.ExecuteContext(ctx, q, db, o)
}

// Standing registers q over db as a standing query: it executes once to
// seed per-server resident state and a materialized result, then each
// Advance routes only the tuples of the Deltas applied since the last
// advance — not the database — through the cached physical plan's router,
// maintaining the result incrementally. Deletes retract exactly via
// counting-based multiset maintenance. Single-round plans advance
// incrementally; multi-round pipelines fall back to full re-execution
// behind the same API. The handle observes Database.Apply automatically;
// call Advance to fold pending deltas into the result, and Close when
// done. See StandingQuery for invalidation (schema changes, new heavy
// hitters, ClearPlanCache) and staleness semantics.
func (s *Session) Standing(ctx context.Context, q *Query, db *Database, opts ...ExecOption) (*StandingQuery, error) {
	// The seed is an execution; it passes the admission gate like any Exec
	// (and a closed session refuses new registrations).
	o, err := s.admit(ctx, q, db, opts)
	if err != nil {
		return nil, err
	}
	defer s.gate.Leave()
	return s.eng.Standing(ctx, q, db, o)
}

// admit folds opts, checks q and db (nil inputs, the forced strategy's
// shape) and passes the admission gate, in that order, so a malformed call
// never takes a slot. Exec and Standing leave the gate when done.
func (s *Session) admit(ctx context.Context, q *Query, db *Database, opts []ExecOption) (core.ExecOptions, error) {
	var o core.ExecOptions
	for _, opt := range opts {
		if opt.apply != nil {
			opt.apply(&o)
		}
	}
	if err := checkNil(q, db); err != nil {
		return o, err
	}
	if err := core.CheckStrategy(q, o.Strategy); err != nil {
		return o, err
	}
	return o, s.gate.Enter(ctx)
}

// Explain renders the engine's plan analysis for q over db (strategy
// choice, per-strategy predicted costs, bounds). Like Exec it reads a
// snapshot epoch, never the database lock. Inputs Exec would reject render
// as that error's text.
func (s *Session) Explain(q *Query, db *Database) string {
	if err := checkNil(q, db); err != nil {
		return "explain: " + err.Error() + "\n"
	}
	return s.eng.Explain(q, db.Snapshot())
}

// checkNil rejects the nil inputs the engine would dereference; everything
// else about q and db is validated by the engine.
func checkNil(q *Query, db *Database) error {
	if q == nil {
		return fmt.Errorf("%w: nil query", core.ErrInvalidQuery)
	}
	if db == nil {
		return errors.New("repro: nil database")
	}
	return nil
}

// CacheStats reports the session's plan-cache counters, including
// drift-triggered Replans.
func (s *Session) CacheStats() CacheStats { return s.eng.CacheStats() }

// PoolStats reports the session's warm-cluster pool occupancy — how many
// clusters are parked for reuse and the memory they pin.
func (s *Session) PoolStats() PoolStats { return s.eng.PoolStats() }

// ClearPlanCache drops every cached plan and resets the cache counters.
func (s *Session) ClearPlanCache() { s.eng.ClearPlanCache() }

// HealthStats reports the session's circuit-breaker state and counters.
// Sessions without a breaker (Config.BreakerThreshold zero) report State
// "disabled".
func (s *Session) HealthStats() HealthStats { return s.eng.HealthStats() }

// Typed serving errors, re-exported from the internal packages so callers
// can branch with errors.Is against the public package alone.
var (
	// ErrOverloaded reports an Exec shed at admission: the session was at
	// MaxInFlight with a full wait queue.
	ErrOverloaded = core.ErrOverloaded
	// ErrSessionClosed reports a call made after (or during) Session.Close.
	ErrSessionClosed = core.ErrSessionClosed
	// ErrStandingClosed reports an Advance on a closed StandingQuery.
	ErrStandingClosed = core.ErrStandingClosed
	// ErrTornRound reports an injected communication-round fault that
	// persisted through the retry budget (see Config.Faults, Config.Retry).
	ErrTornRound = mpc.ErrTornRound
	// ErrComputeFailed reports an injected local-compute fault that
	// persisted through the retry budget (see Config.Faults, Config.Retry).
	ErrComputeFailed = mpc.ErrComputeFailed
	// ErrCircuitOpen reports an Exec shed by the session's circuit breaker
	// (Config.BreakerThreshold): the cluster has been faulting
	// persistently, so calls fail fast instead of burning retry budgets.
	ErrCircuitOpen = core.ErrCircuitOpen
)

// Serving-API types re-exported from the internal packages.
type (
	// CacheStats reports plan-cache counters and occupancy.
	CacheStats = core.CacheStats
	// PoolStats reports cluster-pool traffic and occupancy.
	PoolStats = exec.PoolStats
	// AdmissionStats reports admission-gate counters and occupancy.
	AdmissionStats = core.AdmissionStats
	// Faults is a seeded deterministic fault-injection schedule; see
	// Config.Faults.
	Faults = mpc.Faults
	// Delta is a batched database mutation applied by Database.Apply; a
	// maintained content sum and tuple index make the apply (and every
	// fingerprint after it) cost O(delta), not O(database).
	Delta = data.Delta
	// StandingQuery is a live incremental view over a mutable database;
	// see Session.Standing.
	StandingQuery = core.StandingQuery
	// ResultDelta is the net result change reported by one
	// StandingQuery.Advance.
	ResultDelta = core.ResultDelta
	// StandingStats reports a standing query's cumulative maintenance
	// counters.
	StandingStats = core.StandingStats
	// Retry is the session's fault-recovery policy; see Config.Retry.
	Retry = core.Retry
	// Recovery reports the fault recovery one execution needed; see
	// Result.Recovery.
	Recovery = core.Recovery
	// HealthStats is a snapshot of the session's circuit-breaker state;
	// see Session.HealthStats.
	HealthStats = core.HealthStats
)

// NewDelta returns an empty delta for chaining:
// NewDelta().Insert("S1", 1, 2).Delete("S2", 3, 4).
func NewDelta() *Delta { return new(data.Delta) }
