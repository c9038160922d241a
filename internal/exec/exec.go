// Package exec is the unified physical execution layer shared by every
// one-round strategy in the repository. The paper's three algorithms —
// HyperCube (§3), the specialized skew join (§4.1), and the general
// bin-combination algorithm (§4.2) — differ only in how they lay out
// virtual servers and route tuples; everything downstream (cluster
// construction, the communication round, local computation, load
// accounting) is identical. Each strategy is therefore a *planner* that
// lowers to a PhysicalPlan, and Run is the single executor they all share,
// so cross-cutting work (plan caching, batched routing, allocation-free
// hot paths) lands here once and benefits every algorithm.
package exec

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
)

// PhysicalPlan is the executable form a strategy planner produces: a
// virtual-server layout, a router over virtual IDs, and the query every
// server joins its received fragments on. Plans are immutable once built and
// safe to execute repeatedly (and concurrently): the router is a plan-time
// table that every sender goroutine of every execution shares (see
// mpc.Router). This is what Engine's plan cache stores.
type PhysicalPlan struct {
	// Strategy labels the plan in diagnostics and panics.
	Strategy string
	// Virtual is the number of virtual servers the plan lays out (≥ 1).
	// The paper's skew algorithms allocate Θ(p) of them.
	Virtual int
	// Physical is p, the physical machine count; virtual server v maps to
	// physical machine v mod Physical (round-robin, as the paper assumes).
	Physical int
	// Router decides tuple destinations over virtual IDs in [0, Virtual).
	Router mpc.Router
	// Relations, when non-empty, names the database relations this plan
	// routes; Run then scans only those instead of the whole database.
	// Routers skip foreign relations anyway, so the restriction never
	// changes the result — it keeps a served query's cost independent of
	// unrelated relations living in the same database. Empty means route
	// everything (legacy load-measurement plans).
	Relations []string
	// Query is the query whose natural join over its received fragments
	// is every server's local computation (join.Rows — the same for all
	// three strategies); nil means the plan only routes (load-measurement
	// plans).
	Query *query.Query
	// Dedup removes duplicate answers from the concatenated outputs —
	// needed when sub-plans overlap (the §4.2 bin combinations may produce
	// the same answer in several combinations).
	Dedup bool
	// PredictedBits is the planner's load prediction for this plan (p^λ
	// for HyperCube shares, Eq. 10 for the skew join, max_B p^{λ(B)} for
	// bin combinations).
	PredictedBits float64
	// PartitionHints names the (relation, attribute) pairs whose
	// heavy-partition layout (data.PartitionIndex) this plan's router can
	// exploit through mpc.SpanRouter. Hints are advisory: the serving
	// engine uses them to drive Database.EnsurePartitioned lazily, and an
	// unpartitioned relation simply routes per-tuple.
	PartitionHints []PartitionHint
}

// Local returns server s's answers with one header each. The executor does
// not call it — Run takes the header-free join.Rows of every server and
// writes the headers once, into Result.Output; this is the same computation
// for callers that drive a cluster's compute phase themselves.
func (p *PhysicalPlan) Local(s *mpc.Server) []data.Tuple {
	return join.Join(p.Query, s.Received)
}

// PartitionHint is one (relation, attribute) pair a plan's router routes
// span-wise when the relation carries a heavy-partition layout on Attr.
type PartitionHint struct {
	Rel  string
	Attr int
}

// Config controls one execution of a plan.
type Config struct {
	// SkipCompute routes and accounts loads only: Output stays empty.
	// Load-focused experiments use this to avoid materializing quadratic
	// join outputs.
	SkipCompute bool
	// Scratch, when non-nil, supplies reusable buffers for Run's load
	// accounting, so repeated executions of a cached plan stop allocating
	// per-server slices every run. Result.PerServerBits then aliases the
	// scratch: it is valid until the next Run with the same Scratch.
	// Result.Output never does — every run allocates its own.
	Scratch *Scratch
	// Clusters, when non-nil, overrides the pool Run and RunPipeline draw
	// their mpc.Cluster from; nil uses a process-wide shared pool. Engines
	// own a pool per instance so cached-plan serving reuses warm clusters.
	Clusters *ClusterPool
	// Ctx, when non-nil, cancels the execution: Run checks it before the
	// communication round, the comm engine's route workers check it at
	// every send-part checkpoint inside the round, and RunPipeline
	// additionally checks between rounds. A canceled execution returns the
	// context's error with a zero result; the cluster is still returned to
	// the pool (Reset on Put discards any partial deliveries).
	Ctx context.Context
	// Faults, when non-nil, arms the seeded fault-injection schedule for
	// this execution (see mpc.Faults). Injected faults are recovered in
	// place within the Retry budget — torn rounds are re-driven against
	// the unchanged pre-round state, failed compute phases re-run only the
	// failed servers — and surface as typed errors (mpc.ErrTornRound,
	// mpc.ErrComputeFailed) once the budget is spent.
	Faults *mpc.Faults
	// Retry bounds the execution's fault recovery; the zero value is the
	// default policy (see Retry).
	Retry Retry
	// Recovery, when non-nil, accumulates the execution's recovery stats
	// (attempts, rounds replayed, servers recomputed, backoff waits) so
	// callers can surface them without threading a result through every
	// strategy wrapper.
	Recovery *Recovery
}

// ctxErr returns the configured context's cancellation error, if any.
func (cfg *Config) ctxErr() error {
	if cfg.Ctx == nil {
		return nil
	}
	return cfg.Ctx.Err()
}

// acquire draws a cluster of virtual servers from the configured pool (the
// process-wide one when cfg.Clusters is nil), installs the execution's
// per-run state on it, and pairs it with the execution's retrier. The caller
// defers pool.Put(cluster), which parks the cluster again on every way out —
// Put's Reset clears the per-run state and whatever a canceled, faulted or
// panicking execution left behind.
func (cfg *Config) acquire(virtual int) (pool *ClusterPool, cluster *mpc.Cluster, rt retrier) {
	pool = cfg.Clusters
	if pool == nil {
		pool = &sharedClusters
	}
	cluster = pool.Get(virtual)
	cluster.Ctx = cfg.Ctx
	cluster.Faults = cfg.Faults
	return pool, cluster, newRetrier(cfg, cluster)
}

// recoverable reports whether a round error is an expected runtime
// degradation — an injected fault or the configured context firing — rather
// than a router-contract violation (which stays a panic: planners validate
// their layouts, so a bad destination is an internal bug).
func (cfg *Config) recoverable(err error) bool {
	if errors.Is(err, mpc.ErrTornRound) || errors.Is(err, mpc.ErrComputeFailed) {
		return true
	}
	if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
		return true
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Scratch holds Run's reusable load-accounting buffers. A Scratch may be
// reused across any number of Run calls (plans of different sizes included)
// but must not be shared by concurrent runs.
type Scratch struct {
	perServer []int64
	physical  []int64
}

// DetachOutput does nothing: a Scratch no longer pools an output buffer, so
// no Result.Output aliases it. The method remains only because the frozen
// bench/trace.go calls it; it goes when that file can change.
func (s *Scratch) DetachOutput() {}

// grow returns buf resized to n with every element zeroed, reusing the
// backing array when capacity allows.
func grow(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Result reports one execution of a plan: the answers plus the realized
// loads, both over virtual servers and rolled up onto physical machines.
type Result struct {
	// Output is the servers' answers in server-ID order, each server's in
	// join.Join's order over fragments delivered in (part, row) order — a
	// pure function of plan and input; nil when there are none. One
	// execution allocates one value arena per server (join.Rows) and this
	// one header array, written once: every answer is a len == cap == k
	// slice of its server's arena, Dedup compacts the headers in place, and
	// retaining one answer retains that server's arena.
	Output []data.Tuple
	// Loads summarizes the virtual-server loads (with replication rate
	// relative to the input database).
	Loads mpc.LoadSummary
	// MaxVirtualBits is the maximum load over virtual servers — the
	// quantity the paper's theorems bound.
	MaxVirtualBits int64
	// MaxPhysicalBits maps virtual servers onto the Physical machines
	// round-robin and reports the max per-machine load.
	MaxPhysicalBits int64
	// PerServerBits is the received load of each virtual server, indexed
	// by virtual ID; planners use it for strategy-specific breakdowns
	// (per-class, per-bin-combination).
	PerServerBits []int64
}

// Run executes plan over db: it draws a pooled cluster sized to the plan,
// runs the one communication round, performs the local computation,
// accounts loads, and parks the cluster for reuse. Routing errors are
// internal bugs (planners validate their layouts), so Run panics on them;
// the errors Run returns are cfg.Ctx's cancellation and injected faults
// from cfg.Faults (mpc.ErrTornRound, mpc.ErrComputeFailed) that outlived
// the cfg.Retry budget — a torn round is re-driven in place and a failed
// compute phase re-runs only the failed servers first.
func Run(plan *PhysicalPlan, db *data.Database, cfg Config) (Result, error) {
	if plan.Virtual < 1 {
		panic(fmt.Sprintf("exec: %s plan has %d virtual servers", plan.Strategy, plan.Virtual))
	}
	if plan.Physical < 1 {
		panic(fmt.Sprintf("exec: %s plan has %d physical servers", plan.Strategy, plan.Physical))
	}
	if err := cfg.ctxErr(); err != nil {
		return Result{}, err
	}
	pool, cluster, rt := cfg.acquire(plan.Virtual)
	defer pool.Put(cluster)
	err := rt.driveRound(nil, func() error {
		if len(plan.Relations) > 0 {
			rels := make([]*data.Relation, len(plan.Relations))
			for i, name := range plan.Relations {
				rels[i] = db.MustGet(name)
			}
			return cluster.RoundRelations(plan.Router, rels...)
		}
		return cluster.Round(db, plan.Router)
	})
	if err != nil {
		if cfg.recoverable(err) {
			return Result{}, err
		}
		panic(fmt.Sprintf("exec: %s routing failed: %v", plan.Strategy, err))
	}
	if err := cfg.ctxErr(); err != nil {
		return Result{}, err
	}
	var res Result
	if plan.Query != nil && !cfg.SkipCompute {
		rows := make([]data.Rows, plan.Virtual)
		err := rt.driveCompute(plan.Strategy, 0, func(s *mpc.Server) { rows[s.ID] = join.Rows(plan.Query, s.Received, 0) })
		if err != nil {
			return Result{}, err
		}
		// Size Output exactly, then write each server's headers at its
		// prefix-sum offset (the running length), in server order.
		total := 0
		for _, r := range rows {
			total += r.N
		}
		if total > 0 {
			res.Output = make([]data.Tuple, 0, total)
			for _, r := range rows {
				res.Output = r.AppendTuples(res.Output)
			}
		}
		if plan.Dedup {
			res.Output = join.Dedup(res.Output)
		}
	}
	res.Loads = cluster.Loads().WithReplication(db.TotalBits())
	res.MaxVirtualBits = res.Loads.MaxBits
	var physical []int64
	if cfg.Scratch != nil {
		cfg.Scratch.perServer = grow(cfg.Scratch.perServer, plan.Virtual)
		cfg.Scratch.physical = grow(cfg.Scratch.physical, plan.Physical)
		res.PerServerBits = cfg.Scratch.perServer
		physical = cfg.Scratch.physical
	} else {
		res.PerServerBits = make([]int64, plan.Virtual)
		physical = make([]int64, plan.Physical)
	}
	for _, sv := range cluster.Servers {
		res.PerServerBits[sv.ID] = sv.BitsIn
		physical[sv.ID%plan.Physical] += sv.BitsIn
	}
	for _, b := range physical {
		if b > res.MaxPhysicalBits {
			res.MaxPhysicalBits = b
		}
	}
	return res, nil
}
