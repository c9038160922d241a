package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/stats"
)

// ResultDelta is the net effect of one Advance on a standing query's
// materialized result: the answers that became live and the answers that
// were retracted, in unspecified order. Version is the database version
// the standing result now reflects. Slices are owned by the caller.
type ResultDelta struct {
	Added   []data.Tuple
	Removed []data.Tuple
	Version uint64
}

// StandingStats reports a standing query's cumulative maintenance work.
type StandingStats struct {
	// Advances counts Advance calls; Reseeds of them rebuilt resident
	// state from scratch (plan invalidation, schema change, new heavy
	// hitter, or a multi-round fallback refresh — which re-executes every
	// Advance and also counts here).
	Advances uint64
	Reseeds  uint64
	// AppliedOps counts delta operations consumed (including operations on
	// relations outside the query, which are skipped for free).
	AppliedOps uint64
	// RoutedTuples/RoutedBits count delta tuples delivered to virtual
	// servers by incremental maintenance — the standing analogue of the
	// model's received load.
	RoutedTuples int64
	RoutedBits   int64
	// ResidentTuples is the per-server resident state currently held
	// (zero in multi-round fallback mode).
	ResidentTuples int64
	// Pending is the number of captured-but-unadvanced deltas.
	Pending int
	// Recovery accumulates the fault recovery performed across the
	// handle's lifetime: the seed's (and every reseed's) round replays and
	// server recomputes, plus the one reseed retry Advance grants a seed
	// that failed on an injected fault.
	Recovery Recovery
}

// StandingQuery is an incrementally maintained query registration: opened
// by Engine.Standing, it holds the seeded per-server resident state of a
// cached plan and consumes the owning database's delta stream. Each
// Advance routes exactly the tuples applied since the previous Advance
// through the plan's frozen router, updates the resident fragments and the
// counted output, and returns the net ResultDelta.
//
// Maintenance is incremental for single-round plans (hypercube, skew join,
// bin combinations). Multi-round pipelines conservatively fall back to a
// full re-execution per Advance behind the same API.
//
// A StandingQuery is safe for concurrent use; Advance/Result/Stats/Close
// serialize on an internal mutex, and delta capture runs under the
// database's write lock independently of that mutex. Advance never takes
// the database lock: it consumes the captured delta stream and, when it
// must re-read content (reseeds, multi-round fallback), it reads an
// immutable snapshot epoch — so advances never block Apply and Apply never
// blocks advances.
type StandingQuery struct {
	e  *Engine
	q  *query.Query
	db *data.Database
	s  settings

	// key is the plan-cache key the resident state was seeded from,
	// guarded by e.mu (markStale matches handles by key while holding it;
	// reseeds republish through e.setStandingKey).
	key planKey

	// stale is flagged (without any lock) by plan invalidation —
	// drift-triggered markStale, ClearPlanCache — and by Close.
	stale atomic.Bool

	mu             sync.Mutex
	st             *exec.Standing    // nil in multi-round fallback mode
	fallback       *mpc.Counted      // fallback mode's current counted result
	watch          *stats.HeavyWatch // nil in multi-round fallback mode
	schema         uint64
	appliedVersion uint64
	closed         bool
	unwatch        func()
	stats          StandingStats

	// queueMu guards pending, the capture queue the Watch callback feeds
	// under the database's write lock. Lock order: db.mu → queueMu (the
	// callback) and h.mu → queueMu (Advance); queueMu is always innermost
	// and nothing is ever acquired while holding it.
	queueMu sync.Mutex
	pending []pendingDelta
}

type pendingDelta struct {
	version uint64
	d       *data.Delta
}

// Standing opens a standing query for q over db: it plans (or reuses the
// cached plan, under ExecuteContext's one key), executes the communication
// and local phases once to seed resident per-server state, and subscribes
// to db's delta stream. opts are resolved exactly as in ExecuteContext,
// except that NoCache is ignored — the handle's identity with the plan
// cache is what lets drift-triggered replans flag it for reseeding.
//
// The caller must not be holding db's lock. Close the handle when done or
// its capture queue grows with every Apply.
func (e *Engine) Standing(ctx context.Context, q *query.Query, db *data.Database, opts ExecOptions) (*StandingQuery, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.NoCache = false
	s := e.settings(opts)
	if s.p < 2 {
		return nil, fmt.Errorf("core: need p >= 2, got %d", s.p)
	}
	if err := checkInputs(q, db, s.forced); err != nil {
		return nil, err
	}
	h := &StandingQuery{e: e, q: q, db: db, s: s}
	// Subscribe before seeding: anything applied between subscription and
	// the seed's snapshot is captured with version ≤ the snapshot's version
	// and dropped by the gate, so no delta can fall between seed and stream.
	h.unwatch = db.Watch(func(version uint64, d *data.Delta) {
		h.queueMu.Lock()
		h.pending = append(h.pending, pendingDelta{version: version, d: d})
		h.queueMu.Unlock()
	})
	if err := h.seed(ctx); err != nil {
		h.unwatch()
		return nil, err
	}
	e.registerStanding(h)
	return h, nil
}

// seed (re)builds the handle's plan and resident state against a fresh
// snapshot epoch of the database. Callers hold h.mu (or own h exclusively);
// no database lock is taken — the snapshot is immutable, so a concurrent
// Apply cannot tear the seed (its delta lands in the capture queue with a
// version past the snapshot's and is consumed by the next Advance).
func (h *StandingQuery) seed(ctx context.Context) error {
	snap := h.db.Snapshot()
	pass := new(stats.Pass) // shared by the plan build and the heavy watch
	defer pass.Release()
	cp, key, _ := h.e.planFor(h.q, snap, h.s, pass)
	// Both modes run the plan looked up above, so a seed costs one plan-cache
	// lookup, and neither consults the breaker or marks drift.
	var rec Recovery
	ec := exec.Config{Clusters: &h.e.clusters, Ctx: ctx, Faults: h.s.faults, Retry: h.s.retry, Recovery: &rec}
	if cp.phys != nil {
		st, err := exec.NewStanding(cp.phys, h.q, snap, ec)
		h.stats.Recovery.Add(rec)
		if err != nil {
			return err
		}
		h.st, h.fallback = st, nil
		h.watch = stats.NewHeavyWatch(pass, snap, h.q.AtomNames(), h.s.p)
	} else {
		// A multi-round handle re-executes on every Advance and never
		// consults a heavy watch.
		res, err := runPlan(cp, snap, ec)
		h.stats.Recovery.Add(rec)
		if err != nil {
			return err
		}
		h.st, h.fallback, h.watch = nil, countAnswers(h.q, res.Output), nil
	}
	h.schema = stats.SchemaFingerprint(snap)
	h.appliedVersion = snap.VersionLocked()
	h.stale.Store(false)
	h.e.setStandingKey(h, key)
	return nil
}

// counted returns the current counted result, whichever mode holds it.
func (h *StandingQuery) counted() *mpc.Counted {
	if h.st != nil {
		return h.st.Counted()
	}
	return h.fallback
}

// Advance consumes every delta applied to the database since the previous
// Advance (or the seed) and returns the net result delta. With incremental
// state it routes only the delta tuples; it falls back to a full reseed —
// replan, re-route, rebuild resident state, diff old vs new result — when
// the plan was invalidated (drift replan, ClearPlanCache), the database
// schema changed, a delta introduced a new heavy hitter past the plan's
// §4.1 threshold (routing it light would void the load guarantee), or the
// capture stream is torn. Multi-round fallback handles re-execute fully on
// every non-empty Advance.
//
// Advance with nothing pending and a valid plan is a no-op returning an
// empty delta.
func (h *StandingQuery) Advance(ctx context.Context) (ResultDelta, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return ResultDelta{}, ErrStandingClosed
	}
	if err := ctx.Err(); err != nil {
		return ResultDelta{}, err
	}

	// Fast path: nothing captured, plan still valid.
	h.queueMu.Lock()
	quiet := len(h.pending) == 0
	h.queueMu.Unlock()
	if quiet && !h.stale.Load() {
		return ResultDelta{Version: h.appliedVersion}, nil
	}

	// Drain the capture queue. No database lock is needed: Apply notifies
	// watchers after its version bump, so the next Snapshot reflects every
	// drained delta, and anything applied after the drain stays queued for
	// the next Advance. The version the incremental result reflects is the
	// drained tail's.
	h.queueMu.Lock()
	pending := h.pending
	h.pending = nil
	h.queueMu.Unlock()
	// Gate: drop anything the seed already saw.
	live := pending[:0]
	for _, pd := range pending {
		if pd.version > h.appliedVersion {
			live = append(live, pd)
		}
	}
	version := h.appliedVersion
	if len(live) > 0 {
		version = live[len(live)-1].version
	}
	h.stats.Advances++
	for _, pd := range live {
		h.stats.AppliedOps += uint64(pd.d.Len())
	}

	reseed := h.stale.Load()
	if !reseed && h.schema != stats.SchemaFingerprint(h.db.Master()) {
		reseed = true
	}
	if !reseed && len(live) > 0 && live[0].version != h.appliedVersion+1 {
		// A torn capture stream (should be impossible) is a correctness
		// hazard; rebuild rather than guess.
		reseed = true
	}
	if !reseed && h.st != nil {
		// Pre-pass: fold every op into the watch's maintained counts and
		// check for new heavy hitters before any op touches resident state,
		// so resident fragments are never half-advanced when we decide to
		// reseed. (A reseed rebuilds the watch, so partially-noted counts
		// on the reseed path are discarded, not leaked.)
		for _, pd := range live {
			pd.d.EachOp(func(rel string, vals []int64, insert bool) {
				if h.watch.Note(rel, vals, insert) {
					reseed = true
				}
			})
			if reseed {
				break
			}
		}
	}

	if !reseed && h.st != nil {
		// Incremental path: route exactly the delta tuples.
		before := h.st.Load()
		var opErr error
		for _, pd := range live {
			pd.d.EachOp(func(rel string, vals []int64, insert bool) {
				if opErr != nil {
					return
				}
				opErr = h.st.ApplyOp(rel, vals, insert)
			})
			if opErr != nil {
				break
			}
		}
		if opErr == nil {
			after := h.st.Load()
			h.stats.RoutedTuples += after.RoutedTuples - before.RoutedTuples
			h.stats.RoutedBits += after.RoutedBits - before.RoutedBits
			added, removed := h.st.Flush()
			h.appliedVersion = version
			return ResultDelta{Added: added, Removed: removed, Version: version}, nil
		}
		// Resident state is inconsistent; fall through to a reseed.
		reseed = true
	}

	// Reseed: rebuild resident state once against a fresh snapshot and
	// report the diff of the materialized results. The snapshot may be
	// ahead of the drained queue tail; the deltas in between are already
	// reflected in it, and the gate drops their queued copies next Advance.
	// A multi-round handle holds no resident state to advance, so it lands
	// here on every non-empty Advance with its cached plan still valid;
	// every other reseed first marks the plan stale so planFor replans
	// against current statistics (new-heavy-hitter reseeds are invisible to
	// drift detection).
	if reseed {
		h.e.markStale(h.key)
	}
	old := h.counted()
	err := h.seed(ctx)
	if err != nil && isInjectedFault(err) && ctx.Err() == nil && h.s.retry.MaxAttempts >= 0 {
		// The seed itself is transactional (a failed seed never installs
		// half-built resident state), so a reseed that lost to an injected
		// fault even after the execution-level retry budget gets one more
		// whole-seed try with a backoff in between — the standing analogue
		// of Exec's retry — before the handle is left stale.
		if werr := h.s.retry.Wait(ctx, 1, &h.stats.Recovery); werr == nil {
			h.stats.Recovery.Attempts++
			err = h.seed(ctx)
		}
	}
	if err != nil {
		// Seeding failed (cancellation, injected fault): state is
		// unchanged; the deltas are lost from the queue but appliedVersion
		// still gates a later reseed, which re-reads a snapshot in full.
		h.stale.Store(true)
		return ResultDelta{}, err
	}
	h.stats.Reseeds++
	added, removed := diffCounted(old, h.counted())
	return ResultDelta{Added: added, Removed: removed, Version: h.appliedVersion}, nil
}

// Result returns the standing query's materialized result: the distinct
// answers currently live, as a snapshot the caller owns — later advances
// never change it, and writing into it changes nothing else.
func (h *StandingQuery) Result() []data.Tuple {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.counted().Tuples()
}

// Stats returns the handle's cumulative counters.
func (h *StandingQuery) Stats() StandingStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.stats
	if h.st != nil {
		st.ResidentTuples = h.st.Load().ResidentTuples
	}
	h.queueMu.Lock()
	st.Pending = len(h.pending)
	h.queueMu.Unlock()
	return st
}

// Close unsubscribes from the delta stream and releases the resident
// state. Advance returns ErrStandingClosed after Close and Result returns
// no answers; Close is idempotent.
func (h *StandingQuery) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	h.unwatch()
	h.e.unregisterStanding(h)
	h.st, h.fallback = nil, mpc.NewCounted(h.q.NumVars())
	h.queueMu.Lock()
	h.pending = nil
	h.queueMu.Unlock()
}

// diffCounted returns the liveness diff old → new: answers live only in new
// (added) and only in old (removed), as caller-owned tuples.
func diffCounted(old, new *mpc.Counted) (added, removed []data.Tuple) {
	return new.Minus(old), old.Minus(new)
}

// countAnswers counts every answer of a full execution once — the counted
// result of a multi-round fallback handle.
func countAnswers(q *query.Query, answers []data.Tuple) *mpc.Counted {
	c := mpc.NewCounted(q.NumVars())
	for _, t := range answers {
		c.Add(t, 1)
	}
	return c
}

// registerStanding adds h to the engine's invalidation registry.
func (e *Engine) registerStanding(h *StandingQuery) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.standing == nil {
		e.standing = make(map[*StandingQuery]struct{})
	}
	e.standing[h] = struct{}{}
}

// unregisterStanding removes h from the invalidation registry.
func (e *Engine) unregisterStanding(h *StandingQuery) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.standing, h)
}

// setStandingKey republishes the plan-cache key h's state was seeded from;
// markStale matches handles by key under e.mu.
func (e *Engine) setStandingKey(h *StandingQuery, key planKey) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h.key = key
}
