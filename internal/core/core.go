// Package core is the top of the stack: a one-round MPC query-evaluation
// engine that puts the paper's pieces together. Given a conjunctive query,
// a database, and p servers, the engine collects statistics, decides which
// algorithm applies — plain HyperCube on skew-free data (§3), the
// specialized skew join for the two-relation join (§4.1), or the general
// bin-combination algorithm (§4.2) — computes the matching lower bound
// (Theorems 3.5/4.7), and executes the plan on the simulator.
package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/stats"
)

// Strategy identifies which of the paper's algorithms a plan uses.
type Strategy int

// Strategies.
const (
	// HyperCube is the §3.1 algorithm with LP-optimal shares (skew-free
	// data, simple statistics).
	HyperCube Strategy = iota
	// SkewJoin is the §4.1 algorithm specialized for
	// q(x,y,z) = S1(x,z), S2(y,z) with heavy hitters.
	SkewJoin
	// BinCombination is the general §4.2 algorithm for arbitrary
	// conjunctive queries with heavy hitters.
	BinCombination
	// MultiRound is the traditional one-join-per-round pipeline (skew-aware
	// per-step heavy-hitter grids), one stage per join with intermediates
	// resident on the servers between rounds; exec.Execute runs it like
	// every other plan.
	MultiRound
)

func (s Strategy) String() string {
	switch s {
	case HyperCube:
		return "hypercube"
	case SkewJoin:
		return "skew-join"
	case BinCombination:
		return "bin-combination"
	case MultiRound:
		return "multi-round"
	}
	return "?"
}

// DefaultPlanCacheCapacity bounds the plan cache when the engine does not
// set an explicit capacity: enough for a realistic working set of
// (query, database) pairs, small enough that a churn of one-off databases
// cannot grow the engine without bound.
const DefaultPlanCacheCapacity = 64

// Config is the immutable engine configuration, validated once by New so a
// served engine never reads a field another goroutine might be writing.
type Config struct {
	// P is the physical server count (≥ 2).
	P int
	// Seed pins every hash family the engine derives.
	Seed uint64
	// PlanCacheCapacity bounds the number of cached plans; 0 means
	// DefaultPlanCacheCapacity, negative means unbounded.
	PlanCacheCapacity int
	// ConsiderMultiRound adds the multi-round pipeline to plan selection:
	// when its predicted cost undercuts the chosen one-round strategy's,
	// the engine plans, caches, and executes the pipeline instead.
	ConsiderMultiRound bool
	// DriftFactor enables adaptive re-planning of cached plans: when a
	// cached execution's realized max load exceeds
	// DriftFactor × the plan's predicted bits and the database content has
	// changed since the plan was built, the cached entry is marked stale
	// and the next execution replans against current statistics
	// (Result.Replanned reports it). 0 disables; values in (0, 1) are
	// rejected — they would demand realized loads below the prediction.
	DriftFactor float64
	// Faults, when non-nil, arms a seeded fault-injection schedule for every
	// execution (see mpc.Faults). Injected faults are recovered at round
	// granularity within the Retry budget — a torn round is re-driven in
	// place and a failed compute phase re-runs only the failed servers —
	// and surface as typed errors (mpc.ErrTornRound, mpc.ErrComputeFailed)
	// once the budget is spent. Result.Recovery reports what recovery an
	// execution needed.
	Faults *mpc.Faults
	// Retry bounds per-execution fault recovery: attempts, capped
	// exponential backoff with deterministic jitter, and an injectable
	// sleep hook (see Retry). The zero value is the default policy.
	Retry Retry
	// BreakerThreshold arms the engine's circuit breaker: after this many
	// consecutive executions ending in cluster-level fault errors the
	// engine fails fast with ErrCircuitOpen, admitting one probe execution
	// at a time until a probe succeeds (see HealthStats). 0 disables the
	// breaker.
	BreakerThreshold int
}

// Engine evaluates conjunctive queries in one communication round on p
// simulated servers.
//
// ExecuteContext caches physical plans keyed by (query canonical form,
// database identity and schema, p, forced strategy): repeated calls on one
// database — the heavy repeated-traffic case — skip statistics collection,
// LP solving, and heavy-hitter planning, also across content deltas (see
// planKey). The cache is a bounded LRU (Config.PlanCacheCapacity);
// least-recently-used plans are evicted and counted in CacheStats. Engines
// are built by New, configured per call through ExecuteContext's
// ExecOptions, and safe for concurrent use.
type Engine struct {
	conf Config

	mu        sync.Mutex
	cache     map[planKey]*list.Element // key → element whose Value is *cacheEntry
	lru       list.List                 // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
	replans   uint64
	// capacity is the effective cache bound (≤ 0 means unbounded).
	capacity int
	// clusters recycles mpc clusters across executions (size-bucketed):
	// cached-plan serving draws a warm cluster — servers and Received maps
	// retained — instead of reallocating Θ(Virtual) of both per execution.
	clusters exec.ClusterPool
	// standing registers the engine's live standing-query handles so plan
	// invalidation (drift-triggered markStale, ClearPlanCache) can flag the
	// handles whose resident state was built from the invalidated plan.
	// Guarded by mu; the flag itself is an atomic on the handle, so no
	// handle lock is ever taken under mu.
	standing map[*StandingQuery]struct{}
	// repartitions counts heavy-partition layout rebuilds driven by
	// executions (see ensurePartitions). Guarded by mu.
	repartitions uint64
	// breaker is the per-engine circuit breaker over cluster-fault
	// failures; nil unless Config.BreakerThreshold armed it.
	breaker *breaker
}

// cacheEntry is one LRU node: the key (so eviction can unmap it) plus the
// cached plan bundle and its staleness mark (set by drift detection).
type cacheEntry struct {
	key   planKey
	cp    *cachedPlan
	stale bool
}

// planKey identifies a cached plan: q.String() is a canonical rendering of
// the query (names, variable order, atom order), id and schema are the
// database's identity and schema fingerprint, p/seed pin the layout and
// hash family, and forced pins the strategy override in effect. Multi-round
// consideration is fixed per engine (Config.ConsiderMultiRound), so it needs
// no key field.
//
// Content is not part of the key: content deltas (Database.Apply, or a
// construction-time Add) keep it, because a physical plan routes by column
// position through statistics frozen before the round and stays *correct*
// for any content, merely load-suboptimal — drift detection decides when
// suboptimal has become bad enough to replan. A schema change (relation
// replaced with a different shape) does change the key, because positional
// routing would be wrong.
type planKey struct {
	query  string
	id     uint64
	schema uint64
	p      int
	seed   uint64
	forced Strategy // -1 when no override
}

// cachedPlan holds the logical plan, its executable form — a one-round
// plan is a one-stage pipeline — and the content fingerprint the statistics
// were frozen at (drift detection replans only when the content actually
// moved since).
type cachedPlan struct {
	plan      Plan
	plannedFP uint64
	run       *exec.Pipeline
}

// ensurePartitions drives lazy skew-adaptive layout maintenance for an
// execution: every relation a stage's router can span-route
// (exec.PhysicalPlan.PartitionHints) gets a current heavy-partition index
// (data.Database.EnsurePartitioned) so span routing kicks in on the next
// epoch's snapshots. db may be a snapshot — the ensure delegates to the
// mutable master behind it.
func (e *Engine) ensurePartitions(cp *cachedPlan, db *data.Database, p int) {
	rebuilt := 0
	for _, st := range cp.run.Stages {
		for _, h := range st.Plan.PartitionHints {
			if db.EnsurePartitioned(h.Rel, h.Attr, p) {
				rebuilt++
			}
		}
	}
	if rebuilt > 0 {
		e.mu.Lock()
		e.repartitions += uint64(rebuilt)
		e.mu.Unlock()
	}
}

// Plan describes the chosen algorithm and the bound analysis for one
// query/database pair.
type Plan struct {
	Strategy       Strategy
	Shares         []int   // HyperCube only
	LowerBoundBits float64 // Theorem 1.2's L_lower = max_{x,u} L_x(u,M,p)
	HasSkew        bool
	Reason         string
	// PredictedBits is the chosen strategy's cost prediction: p^λ for
	// HyperCube, Eq. 10 for the skew join, max_B p^{λ(B)} for bin
	// combinations, and the summed per-round maxima (SumMaxBits) for
	// multi-round pipelines.
	PredictedBits float64
	// Rounds is the number of communication rounds the plan uses (1 for
	// every one-round strategy).
	Rounds int
}

// Result is the outcome of ExecuteContext.
type Result struct {
	Plan Plan
	// Output holds the answers: one header array written once per
	// execution (see exec.Result.Output), owned by the caller. The answers
	// one server computed are slices of that server's arena: each may be
	// appended to or written independently, but retaining one retains that
	// server's whole share of the output.
	Output []data.Tuple
	// MaxLoadBits sums each round's max virtual-server load (for one round,
	// what the theorems bound); TotalBits sums every round's received bits.
	MaxLoadBits   int64
	TotalBits     int64
	PredictedBits float64
	// Replanned reports that this execution rebuilt a cached plan that
	// drift detection had marked stale: the statistics the old plan froze
	// had diverged from realized loads.
	Replanned bool
	// Recovery reports the fault recovery this execution needed: retry
	// attempts consumed, rounds replayed in place, servers recomputed, and
	// backoff waits taken. The zero value means a clean run.
	Recovery Recovery
}

// Retry bounds per-execution fault recovery; see exec.Retry.
type Retry = exec.Retry

// Recovery reports one execution's fault-recovery stats; see exec.Recovery.
type Recovery = exec.Recovery

// Defaults of the zero Retry policy, re-exported from exec.
const (
	DefaultRetryAttempts    = exec.DefaultRetryAttempts
	DefaultRetryBaseBackoff = exec.DefaultRetryBaseBackoff
	DefaultRetryMaxBackoff  = exec.DefaultRetryMaxBackoff
)

// New returns an engine built from cfg, or an error for invalid
// configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.P < 2 {
		return nil, fmt.Errorf("core: need p >= 2, got %d", cfg.P)
	}
	if cfg.DriftFactor != 0 && cfg.DriftFactor < 1 {
		return nil, fmt.Errorf("core: drift factor %g is below 1: realized loads would always count as drifted", cfg.DriftFactor)
	}
	if cfg.BreakerThreshold < 0 {
		return nil, fmt.Errorf("core: negative breaker threshold %d", cfg.BreakerThreshold)
	}
	e := &Engine{conf: cfg, capacity: cfg.PlanCacheCapacity}
	if e.capacity == 0 {
		e.capacity = DefaultPlanCacheCapacity
	}
	if cfg.BreakerThreshold > 0 {
		e.breaker = &breaker{threshold: cfg.BreakerThreshold}
	}
	return e, nil
}

// ExecOptions are per-call overrides for ExecuteContext. The zero value
// means "use the engine's configuration".
type ExecOptions struct {
	// Strategy forces plan selection when non-nil.
	Strategy *Strategy
	// NoCache bypasses the plan cache for this call (plan and discard).
	NoCache bool
	// P overrides the engine's server count when > 0.
	P int
	// Serving is read by nothing (see frozen.go).
	Serving bool
}

// settings is the resolved effective configuration of one execution.
type settings struct {
	p       int
	seed    uint64
	forced  *Strategy
	mr      bool
	noCache bool
	drift   float64
	faults  *mpc.Faults
	retry   Retry
	// shares fixes the HyperCube shares (Run only; never cached).
	shares []int
}

// settings resolves the engine configuration plus the per-call overrides.
func (e *Engine) settings(opts ExecOptions) settings {
	c := &e.conf
	s := settings{
		p:       c.P,
		seed:    c.Seed,
		forced:  opts.Strategy,
		mr:      c.ConsiderMultiRound,
		noCache: opts.NoCache,
		drift:   c.DriftFactor,
		faults:  c.Faults,
		retry:   c.Retry,
	}
	if opts.P > 0 {
		s.p = opts.P
	}
	return s
}

// PlanQuery analyzes statistics and picks the algorithm, including the
// multi-round cost comparison when ConsiderMultiRound is set. It builds
// (and discards) the physical plan to obtain the strategy's cost
// prediction; ExecuteContext's plan cache avoids the duplicate work on the
// hot path.
func (e *Engine) PlanQuery(q *query.Query, db *data.Database) Plan {
	cp, _ := buildPlan(q, db, e.settings(ExecOptions{}), nil)
	return cp.plan
}

// logicalPlan runs the one-round strategy selection of §3/§4.
func logicalPlan(q *query.Query, db *data.Database, s settings, ps *stats.Pass) Plan {
	if err := q.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid query: %v", err))
	}
	dbStats := ps.CollectNamed(db, q.AtomNames(), s.p)
	hasSkew := false
	for _, a := range q.Atoms {
		rs := dbStats.Relations[a.Name]
		if rs == nil {
			panic("core: database missing relation " + a.Name)
		}
		for _, f := range rs.ByAttrs {
			if len(f.HeavyHitters(rs.Threshold)) > 0 {
				hasSkew = true
			}
		}
	}
	lower, desc := bounds.BestLowerWith(q, db, s.p, 0, ps)
	plan := Plan{LowerBoundBits: lower, HasSkew: hasSkew}
	switch {
	case s.forced != nil:
		plan.Strategy = *s.forced
		plan.Reason = "forced: " + plan.Strategy.String()
	case !hasSkew:
		plan.Strategy = HyperCube
		plan.Reason = "no heavy hitters at threshold m/p; LP shares are optimal (" + desc + ")"
	case isJoin2Shaped(q):
		plan.Strategy = SkewJoin
		plan.Reason = "two-relation join with heavy hitters; §4.1 specialized algorithm (" + desc + ")"
	default:
		plan.Strategy = BinCombination
		plan.Reason = "heavy hitters on a general query; §4.2 bin combinations (" + desc + ")"
	}
	return plan
}

// checkInputs is the validation ExecuteContext, Standing, Explain and Run
// share: q must be structurally valid and able to take the forced strategy
// (else an error wrapping ErrInvalidQuery) and db must hold every relation q
// names.
func checkInputs(q *query.Query, db *data.Database, forced *Strategy) error {
	if err := q.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidQuery, err)
	}
	if err := CheckStrategy(q, forced); err != nil {
		return err
	}
	for _, a := range q.Atoms {
		if db.Get(a.Name) == nil {
			return fmt.Errorf("core: database missing relation %s", a.Name)
		}
	}
	return nil
}

// CheckStrategy reports, as an error wrapping ErrInvalidQuery, that q cannot
// take the forced strategy: the §4.1 skew join plans only two binary atoms
// sharing one variable, and values outside the Strategy constants name no
// planner. Every query can take the other strategies; nil forces nothing.
func CheckStrategy(q *query.Query, forced *Strategy) error {
	if forced == nil {
		return nil
	}
	switch *forced {
	case HyperCube, BinCombination, MultiRound:
		return nil
	case SkewJoin:
		if err := skew.CheckJoin(q); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidQuery, err)
		}
		return nil
	}
	return fmt.Errorf("%w: unknown strategy %d", ErrInvalidQuery, int(*forced))
}

// ExecuteContext plans and runs the query through the unified executor
// with per-call options, returning answers and realized loads, or an error
// for invalid input. The execution reads one immutable epoch: a snapshot db
// as given, a mutable master through the db.Snapshot() it takes itself, so
// a concurrent Database.Apply can neither tear the read nor race the
// heavy-partition layout rebuilds the execution drives on the master.
//
// Plans are cached under the one key of planKey: a repeat call with the
// same query, database (identity and schema) and p reuses the cached
// physical plan, across content deltas too. A configured drift factor arms
// adaptive re-planning: a cached execution whose realized max load exceeds
// driftFactor × the plan's prediction, on content that changed since the
// plan was built, marks the entry stale; the next call replans against
// current statistics and reports Result.Replanned. The context is checked
// before planning, before the communication round, and between the rounds
// of a multi-round pipeline; a canceled execution returns ctx.Err().
func (e *Engine) ExecuteContext(ctx context.Context, q *query.Query, db *data.Database, opts ExecOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := e.settings(opts)
	if s.p < 2 {
		return Result{}, fmt.Errorf("core: need p >= 2, got %d", s.p)
	}
	if err := checkInputs(q, db, s.forced); err != nil {
		return Result{}, err
	}
	if db.Master() == db {
		db = db.Snapshot()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	// Circuit breaker: a persistently faulting cluster sheds fast instead of
	// burning a retry-backoff budget per caller. Checked before planning so
	// shed calls cost nothing.
	var probe bool
	if e.breaker != nil {
		var berr error
		if probe, berr = e.breaker.admit(); berr != nil {
			return Result{}, berr
		}
	}
	cp, key, replanned := e.planFor(q, db, s, nil)
	// Lazy skew-adaptive layout maintenance: make sure every relation the
	// plan's router can span-route carries a current heavy-partition index.
	// Rebuilds land on the mutable master and reach the *next* epoch — this
	// execution's snapshot keeps its frozen layout (current or not, routing
	// is correct either way; stale layouts just route per-tuple or span-wise
	// with yesterday's runs), so the rebuild never races an in-flight round.
	e.ensurePartitions(cp, db, s.p)
	var rec Recovery
	res, execErr := runPlan(cp, db, exec.Config{Clusters: &e.clusters, Ctx: ctx, Faults: s.faults, Retry: s.retry, Recovery: &rec})
	if execErr != nil {
		// Recovery happened inside the executor (round replays, partial
		// recomputes); an error here means the retry budget is spent. Surface
		// the typed error so the caller can shed or degrade, and let the
		// breaker count cluster-level faults.
		if e.breaker != nil {
			outcome := breakerNeutral
			if isInjectedFault(execErr) {
				outcome = breakerFault
			}
			e.breaker.done(probe, outcome)
		}
		return Result{}, execErr
	}
	if e.breaker != nil {
		e.breaker.done(probe, breakerOK)
	}
	res.Replanned = replanned
	res.Recovery = rec
	// Adaptive re-planning: realized load drifted beyond the prediction on
	// content that moved since the statistics were frozen → replan next
	// call. (Equal content cannot replan: rebuilt statistics would be
	// identical, so marking would only thrash the cache.)
	if s.drift > 0 && !s.noCache {
		pred := res.Plan.PredictedBits
		if pred > 0 && float64(res.MaxLoadBits) > s.drift*pred {
			if fp := stats.Fingerprint(db); fp != cp.plannedFP {
				e.markStale(key)
			}
		}
	}
	return res, nil
}

// runPlan is the engine's one call into the executor: it runs cp's
// pipeline over db and shapes the answers and realized loads into a Result.
// For every strategy the load is one formula: Σ over rounds of the round's
// maximum (for one round, the max the paper's theorems bound), and the
// total sums every round's bits.
func runPlan(cp *cachedPlan, db *data.Database, ec exec.Config) (Result, error) {
	er, err := exec.Execute(cp.run, db, ec)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Plan:          cp.plan,
		Output:        er.Output,
		MaxLoadBits:   er.MaxLoadBits(),
		TotalBits:     er.TotalBits(),
		PredictedBits: cp.plan.PredictedBits,
	}
	// Callers own the Result; don't let them mutate the cached plan
	// through the shared backing array.
	res.Plan.Shares = append([]int(nil), cp.plan.Shares...)
	return res, nil
}

// RunConfig configures Run: the strategy to plan with, the server count
// (≥ 2), the hash seed, and — for HyperCube only — explicit shares, one per
// query variable with product ≤ P (nil: the LP-optimal shares).
type RunConfig struct {
	Strategy Strategy
	P        int
	Seed     uint64
	Shares   []int
}

// Run plans q over db with cfg.Strategy and executes the plan once, with no
// engine, plan cache or fault injection: the same Result ExecuteContext
// returns for that strategy with NoCache set. Invalid input — P < 2, a
// strategy q cannot take, shares that do not fit q or P — is an error.
func Run(q *query.Query, db *data.Database, cfg RunConfig) (Result, error) {
	if cfg.P < 2 {
		return Result{}, fmt.Errorf("core: need p >= 2, got %d", cfg.P)
	}
	if err := checkInputs(q, db, &cfg.Strategy); err != nil {
		return Result{}, err
	}
	if cfg.Shares != nil {
		if cfg.Strategy != HyperCube {
			return Result{}, fmt.Errorf("core: shares fix a HyperCube layout, not %s", cfg.Strategy)
		}
		if len(cfg.Shares) != q.NumVars() {
			return Result{}, fmt.Errorf("core: %d shares for %d query variables", len(cfg.Shares), q.NumVars())
		}
		used := 1
		for _, sh := range cfg.Shares {
			if sh < 1 {
				return Result{}, fmt.Errorf("core: share %d is below 1", sh)
			}
			if used *= sh; used > cfg.P {
				return Result{}, fmt.Errorf("core: shares %v use more than p = %d servers", cfg.Shares, cfg.P)
			}
		}
	}
	s := settings{p: cfg.P, seed: cfg.Seed, forced: &cfg.Strategy, shares: cfg.Shares}
	cp, _ := buildPlan(q, db, s, nil)
	return runPlan(cp, db, exec.Config{})
}

// isInjectedFault reports whether err is a cluster-level fault error — the
// kind the executor's retry budget fights and the circuit breaker counts.
func isInjectedFault(err error) bool {
	return errors.Is(err, mpc.ErrTornRound) || errors.Is(err, mpc.ErrComputeFailed)
}

// markStale marks the cached entry for key (if still cached) so the next
// execution rebuilds it against current statistics, and flags every
// standing query built from that plan so its next Advance reseeds.
func (e *Engine) markStale(key planKey) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.cache[key]; ok {
		el.Value.(*cacheEntry).stale = true
	}
	for sq := range e.standing {
		if sq.key == key {
			sq.stale.Store(true)
		}
	}
}

// planFor returns the cached plan bundle for (q, db), building and caching
// it on a miss. Hits refresh the entry's LRU position; a hit on a
// drift-stale entry rebuilds it (reported as replanned); inserts beyond
// the capacity evict from the cold end. ps is buildPlan's: a standing
// query passes its own, to build its heavy watch off the same groupings.
func (e *Engine) planFor(q *query.Query, db *data.Database, s settings, ps *stats.Pass) (*cachedPlan, planKey, bool) {
	if s.noCache {
		cp, _ := buildPlan(q, db, s, ps)
		return cp, planKey{}, false
	}
	key := planKey{query: q.String(), id: db.ID(), schema: stats.SchemaFingerprint(db), p: s.p, seed: s.seed, forced: -1}
	if s.forced != nil {
		key.forced = *s.forced
	}
	replanned := false
	e.mu.Lock()
	if el, ok := e.cache[key]; ok {
		ent := el.Value.(*cacheEntry)
		if !ent.stale {
			e.hits++
			e.lru.MoveToFront(el)
			cp := ent.cp
			e.mu.Unlock()
			return cp, key, false
		}
		// Drift marked this entry stale: drop it and replan against the
		// database's current statistics.
		e.lru.Remove(el)
		delete(e.cache, key)
		e.replans++
		replanned = true
	}
	e.mu.Unlock()
	// Plan outside the lock: planning is the expensive part, and a
	// duplicate build for a racing miss is just redundant work.
	cp, _ := buildPlan(q, db, s, ps)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.misses++
	if el, ok := e.cache[key]; ok {
		// A racing miss already inserted this key; keep the live entry.
		e.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).cp, key, replanned
	}
	if e.cache == nil {
		e.cache = make(map[planKey]*list.Element)
	}
	e.cache[key] = e.lru.PushFront(&cacheEntry{key: key, cp: cp})
	for e.capacity > 0 && e.lru.Len() > e.capacity {
		cold := e.lru.Back()
		e.lru.Remove(cold)
		delete(e.cache, cold.Value.(*cacheEntry).key)
		e.evictions++
	}
	return cp, key, replanned
}

// buildPlan runs the logical planner, lowers the chosen strategy to its
// pipeline, and — when multi-round consideration is on — cost-compares
// the one-round choice against a multi-round pipeline (predicted SumMaxBits
// vs the one-round PredictedBits), switching to the pipeline when cheaper.
// Every step counts through the one pass ps, so each (relation, attribute
// list) is grouped once; the plan keeps nothing of ps. A nil ps means a
// pass of the build's own, released before it returns; a caller's pass is
// the caller's to release. The second result holds the planners' outputs
// the build lowered on the way; only Explain reads it.
func buildPlan(q *query.Query, db *data.Database, s settings, ps *stats.Pass) (*cachedPlan, lowered) {
	if ps == nil {
		ps = new(stats.Pass)
		defer ps.Release()
	}
	cp := &cachedPlan{plan: logicalPlan(q, db, s, ps)}
	cp.plannedFP = stats.Fingerprint(db)
	var low lowered
	switch cp.plan.Strategy {
	case HyperCube:
		low.hc = hypercube.BuildPlan(q, db, hypercube.Config{P: s.p, Seed: s.seed, Shares: s.shares})
		cp.run = exec.OneRound(low.hc.Phys)
		cp.plan.Shares = low.hc.Grid.Shares
	case SkewJoin:
		cp.run = exec.OneRound(skew.PlanJoinWith(q, db, skew.JoinConfig{P: s.p, Seed: s.seed}, ps).Phys)
	case BinCombination:
		low.general = skew.PlanGeneralWith(q, db, skew.GeneralConfig{P: s.p, Seed: s.seed}, ps)
		cp.run = exec.OneRound(low.general.Phys)
	case MultiRound:
		cp.run = planMultiRound(q, db, s, ps)
	}
	if s.mr && s.forced == nil && cp.plan.Strategy != MultiRound && q.NumAtoms() >= 2 {
		mr := planMultiRound(q, db, s, ps)
		one := cp.run.PredictedSumMaxBits
		if one > 0 && mr.PredictedSumMaxBits < one {
			cp.plan.Reason = fmt.Sprintf(
				"multi-round pipeline predicted Σmax %.0f bits beats one-round %s predicted %.0f bits (%s)",
				mr.PredictedSumMaxBits, cp.plan.Strategy, one, cp.plan.Reason)
			cp.plan.Strategy = MultiRound
			cp.plan.Shares = nil
			cp.run = mr
		} else {
			cp.plan.Reason += fmt.Sprintf(
				"; multi-round rejected (predicted Σmax %.0f bits over %d rounds)",
				mr.PredictedSumMaxBits, len(mr.Stages))
			low.rejected = mr
		}
	}
	cp.plan.PredictedBits = cp.run.PredictedSumMaxBits
	cp.plan.Rounds = len(cp.run.Stages)
	return cp, low
}

// lowered is what buildPlan lowered besides the plan it returns: the
// HyperCube or §4.2 plan when it chose that strategy first, and the
// multi-round pipeline its cost comparison rejected; nil where it lowered
// none.
type lowered struct {
	hc       *hypercube.Plan
	general  *skew.GeneralPlan
	rejected *exec.Pipeline
}

// planMultiRound lowers the skew-aware multi-round pipeline for q.
func planMultiRound(q *query.Query, db *data.Database, s settings, ps *stats.Pass) *exec.Pipeline {
	return rounds.Lower(rounds.BuildPlan(q), db, rounds.Config{P: s.p, Seed: s.seed, SkewAware: true}, ps).Pipe
}

// CacheStats reports the plan cache counters and occupancy.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// Replans counts drift-triggered rebuilds of stale entries (a replan
	// also counts as a miss: it plans).
	Replans uint64
	// Repartitions counts heavy-partition layout rebuilds driven by
	// executions.
	Repartitions uint64
	Size         int // live entries
	Capacity     int // effective bound (≤ 0 means unbounded)
}

// CacheStats returns the plan cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheStats{
		Hits:         e.hits,
		Misses:       e.misses,
		Evictions:    e.evictions,
		Replans:      e.replans,
		Repartitions: e.repartitions,
		Size:         len(e.cache),
		Capacity:     e.capacity,
	}
}

// PoolStats reports the engine's cluster pool occupancy — the warm
// clusters cached-plan serving draws from and the memory they pin.
func (e *Engine) PoolStats() exec.PoolStats {
	return e.clusters.Stats()
}

// ClearPlanCache drops all cached plans and resets the counters. Live
// standing queries are flagged stale: their resident state was seeded from
// a now-dropped plan, so their next Advance replans and reseeds.
func (e *Engine) ClearPlanCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache = nil
	e.lru.Init()
	e.hits, e.misses, e.evictions, e.replans, e.repartitions = 0, 0, 0, 0, 0
	for sq := range e.standing {
		sq.stale.Store(true)
	}
}

// isJoin2Shaped recognizes q(x,y,z) = S1(x,z), S2(y,z) up to renaming:
// two binary atoms sharing exactly one variable, which sits at the second
// position of both atoms.
func isJoin2Shaped(q *query.Query) bool {
	if q.NumAtoms() != 2 || q.NumVars() != 3 {
		return false
	}
	a, b := q.Atoms[0], q.Atoms[1]
	if a.Arity() != 2 || b.Arity() != 2 {
		return false
	}
	return a.Vars[1] == b.Vars[1] && a.Vars[0] != b.Vars[0]
}
