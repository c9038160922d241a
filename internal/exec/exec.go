// Package exec is the physical execution layer every strategy in the
// repository shares. The MPC model (§2) has one kind of computation: a
// sequence of rounds, each a communication phase and then a local phase.
// The paper's three one-round algorithms — HyperCube (§3), the specialized
// skew join (§4.1) and the general bin-combination algorithm (§4.2) — differ
// only in how they lay out virtual servers and route tuples, and the
// traditional one-join-per-round plan differs from them only in its number
// of rounds. Each strategy is therefore a *planner* that lowers to a
// Pipeline of Stages (a one-round plan is a one-stage pipeline, see
// OneRound), and Execute is the one executor they all share: one loop over
// the stages on one pooled cluster, one RoundLoad per round, and one
// Result.
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

// PhysicalPlan is one round's layout: a virtual-server layout, a router over
// virtual IDs, and — for a round whose answers are gathered — the query every
// server joins its received fragments on. Plans are immutable once built and
// safe to execute repeatedly (and concurrently): the router is a plan-time
// table that every sender goroutine of every execution shares (see
// mpc.Router).
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
	// Relations names the database relations the plan routes: OneRound
	// makes them its stage's base inputs, so unrelated relations living in
	// the same database cost a served query nothing.
	Relations []string
	// Query is the query whose natural join over its received fragments is
	// every server's local computation in a one-round plan (join.Rows — the
	// same for all three strategies).
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

// PartitionHint is one (relation, attribute) pair a plan's router routes
// span-wise when the relation carries a heavy-partition layout on Attr.
type PartitionHint struct {
	Rel  string
	Attr int
}

// Stage is one round: its Plan supplies the round's virtual-server layout
// and router, which sees two kinds of input, both by relation name: Base
// relations routed from the input servers' uniform partitions, and Resident
// relations — earlier stages' outputs — shuffled server-to-server out of the
// previous round's layout.
type Stage struct {
	// Plan is the stage's layout: Virtual and Router always, Query and
	// Dedup when the stage's answers are gathered (LocalFragment nil).
	Plan *PhysicalPlan
	// Base names database relations entering this round from the input
	// servers.
	Base []string
	// Resident names prior stages' outputs entering this round from the
	// servers currently holding them.
	Resident []string
	// LocalFragment is the stage's local computation: it produces the
	// server's fragment of the stage output (named OutName), which stays
	// resident on the server for the next stage or the final gather. A nil
	// return leaves the server without a fragment. Nil LocalFragment makes
	// the stage a one-round plan's: every server joins Plan.Query over its
	// fragments and the answers are gathered; such a stage must be the last.
	LocalFragment func(s *mpc.Server) *data.Relation
	// OutName/OutArity/OutDomain fix the resident output's schema.
	OutName   string
	OutArity  int
	OutDomain int64
}

// Pipeline is an executable plan: an ordered sequence of stages sharing one
// persistent cluster, stage i's output fragments staying resident on the
// servers and re-shuffled into stage i+1's layout. Cacheable, immutable once
// built, and safe to execute repeatedly.
type Pipeline struct {
	// Strategy labels the pipeline in diagnostics and panics.
	Strategy string
	// Physical is p, the physical machine count shared by every stage.
	Physical int
	// Stages are the rounds, in execution order; the last stage's output is
	// the pipeline's result.
	Stages []Stage
	// PredictedSumMaxBits is the planner's cost prediction: the sum over
	// rounds of the predicted maximum per-server load in bits (a one-round
	// plan's PredictedBits).
	PredictedSumMaxBits float64
	// Head shapes the answers of a resident output: answer column j is
	// column Head[j] of the output (column j when Head is nil). The output
	// is the last stage's fragments or, in a pipeline of no stages, the
	// database relation Input — a single-atom query needs no communication.
	Head  []int
	Input string
}

// OneRound is plan as a pipeline of one stage: the stage routes
// plan.Relations and every server joins plan.Query over its fragments.
func OneRound(plan *PhysicalPlan) *Pipeline {
	return &Pipeline{
		Strategy:            plan.Strategy,
		Physical:            plan.Physical,
		Stages:              []Stage{{Plan: plan, Base: plan.Relations}},
		PredictedSumMaxBits: plan.PredictedBits,
	}
}

// Config controls one execution of a pipeline.
type Config struct {
	// SkipCompute routes and accounts loads only: the last stage's local
	// phase is skipped (earlier stages must run to feed later rounds) and
	// Output stays empty. Load-focused experiments use this to avoid
	// materializing quadratic join outputs.
	SkipCompute bool
	// Scratch is read by nothing (see frozen.go).
	Scratch *Scratch
	// Clusters, when non-nil, overrides the pool Execute draws its
	// mpc.Cluster from; nil uses a process-wide shared pool. Engines own a
	// pool per instance so cached-plan serving reuses warm clusters.
	Clusters *ClusterPool
	// Ctx, when non-nil, cancels the execution: Execute checks it before
	// every round and before every local phase, and the comm engine's route
	// workers check it at every send-part checkpoint inside a round. A
	// canceled execution returns the context's error with a zero result; the
	// cluster is still returned to the pool (Reset on Put discards any
	// partial deliveries).
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

// roundErr returns a round error that is an expected runtime degradation —
// an injected fault or the configured context firing — and panics on any
// other: a router-contract violation is an internal bug, because planners
// validate their layouts.
func (cfg *Config) roundErr(what string, err error) error {
	if errors.Is(err, mpc.ErrTornRound) || errors.Is(err, mpc.ErrComputeFailed) ||
		cfg.Ctx != nil && cfg.Ctx.Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	panic(fmt.Sprintf("exec: %s failed: %v", what, err))
}

// RoundLoad is the realized load of one round.
type RoundLoad struct {
	// LoadSummary is what the round delivered: the maximum and total
	// received bits and tuples over the virtual servers.
	mpc.LoadSummary
	// PerServerBits is the round's received load of each virtual server,
	// indexed by virtual ID; planners use it for strategy-specific
	// breakdowns (per-class, per-bin-combination).
	PerServerBits []int64
	// Intermediate is the number of tuples the stage's local computation
	// left resident (0 for a stage whose answers are gathered).
	Intermediate int
	// ResidentTuples is the number of intermediate tuples that entered this
	// round server-to-server — tuples that never round-tripped through the
	// coordinator or a data.Database.
	ResidentTuples int64
	// Replays counts this round's communication phases that tore and were
	// re-driven in place (earlier rounds' resident state untouched).
	Replays int
}

// Result reports one execution: the answers and each round's loads.
type Result struct {
	// Output is the answers, nil when there are none, owned by the caller.
	// For a one-round plan it is the servers' answers in server-ID order,
	// each server's in join.Join's order over fragments delivered in
	// (part, row) order — a pure function of plan and input: one value arena
	// per server (join.Rows) and one header array, written once, so every
	// answer is a len == cap == k slice of its server's arena, Dedup
	// compacts the headers in place, and retaining one answer retains that
	// server's arena. A resident output is read the same way, server by
	// server, through Pipeline.Head into one arena.
	Output []data.Tuple
	// Rounds holds each round's loads, in stage order.
	Rounds []RoundLoad
}

// MaxLoadBits sums each round's maximum received bits: for one round the
// quantity the paper's theorems bound, for several the most bits one server
// could have received across the whole computation.
func (r Result) MaxLoadBits() int64 {
	var sum int64
	for _, rl := range r.Rounds {
		sum += rl.MaxBits
	}
	return sum
}

// TotalBits sums every round's received bits.
func (r Result) TotalBits() int64 {
	var sum int64
	for _, rl := range r.Rounds {
		sum += rl.TotalBits
	}
	return sum
}

// Execute runs pl over db on one pooled cluster, one round per stage: the
// stage shuffles its resident inputs out of the previous round's layout,
// routes its base inputs from db, runs its local phase, and records one
// RoundLoad. Only the last stage's output is gathered. Routing errors are
// internal bugs (planners validate their layouts), so Execute panics on
// them; the errors it returns are cfg.Ctx's cancellation and injected
// faults from cfg.Faults (mpc.ErrTornRound, mpc.ErrComputeFailed) that
// outlived the cfg.Retry budget. Recovery is round-granular: a torn round
// k is re-driven in place against the surviving resident state (rounds
// 1..k-1 are never repeated), and a failed compute phase re-runs only the
// failed servers. Either way the cluster is released back to the pool.
func Execute(pl *Pipeline, db *data.Database, cfg Config) (Result, error) {
	if pl.Physical < 1 {
		panic(fmt.Sprintf("exec: %s pipeline has %d physical servers", pl.Strategy, pl.Physical))
	}
	if len(pl.Stages) == 0 {
		return Result{Output: pl.answers([]*data.Relation{db.MustGet(pl.Input)})}, nil
	}
	last := len(pl.Stages) - 1
	virtual := 1
	for i := range pl.Stages {
		st := &pl.Stages[i]
		switch {
		case st.Plan == nil || st.Plan.Router == nil:
			panic(fmt.Sprintf("exec: %s stage %d has no plan/router", pl.Strategy, i))
		case st.Plan.Virtual < 1:
			panic(fmt.Sprintf("exec: %s stage %d has %d virtual servers", pl.Strategy, i, st.Plan.Virtual))
		case st.LocalFragment == nil && (i < last || st.Plan.Query == nil),
			st.LocalFragment != nil && st.OutName == "":
			panic(fmt.Sprintf("exec: %s stage %d has no local computation/output name", pl.Strategy, i))
		}
		virtual = max(virtual, st.Plan.Virtual)
	}

	if err := cfg.ctxErr(); err != nil {
		return Result{}, err
	}
	pool, cluster, rt := cfg.acquire(virtual)
	defer pool.Put(cluster)
	res := Result{Rounds: make([]RoundLoad, len(pl.Stages))}
	var rows []data.Rows // the last stage's answers, when they are gathered
	for i := range pl.Stages {
		st, load := &pl.Stages[i], &res.Rounds[i]
		if err := cfg.ctxErr(); err != nil {
			return Result{}, err
		}
		// Each round's loads are its own: the counters restart here.
		for _, sv := range cluster.Servers {
			sv.BitsIn, sv.TuplesIn = 0, 0
			for _, name := range st.Resident {
				if f := sv.Received[name]; f != nil {
					load.ResidentTuples += int64(f.Size())
				}
			}
		}
		if len(st.Resident) > 0 {
			// A torn shuffle is replayed in place: the comm engine dropped
			// the round's route logs and re-attached the detached outgoing
			// fragments, so the replay sees exactly the pre-round resident
			// state.
			err := rt.driveRound(&load.Replays, func() error {
				return cluster.ShuffleResident(st.Plan.Router, st.Resident...)
			})
			if err != nil {
				return Result{}, cfg.roundErr(fmt.Sprintf("%s stage %d resident shuffle", pl.Strategy, i), err)
			}
		}
		if len(st.Base) > 0 {
			rels := make([]*data.Relation, len(st.Base))
			for j, name := range st.Base {
				rels[j] = db.MustGet(name)
			}
			err := rt.driveRound(&load.Replays, func() error {
				return cluster.RoundRelations(st.Plan.Router, rels...)
			})
			if err != nil {
				return Result{}, cfg.roundErr(fmt.Sprintf("%s stage %d routing", pl.Strategy, i), err)
			}
		}
		if err := cfg.ctxErr(); err != nil {
			return Result{}, err
		}
		var err error
		switch {
		case i == last && cfg.SkipCompute:
		case st.LocalFragment != nil:
			err = rt.driveCompute(pl.Strategy, i, func(s *mpc.Server) { s.Install(st.LocalFragment(s)) })
		default:
			rows = make([]data.Rows, len(cluster.Servers))
			err = rt.driveCompute(pl.Strategy, i, func(s *mpc.Server) { rows[s.ID] = join.Rows(st.Plan.Query, s.Received, 0) })
		}
		if err != nil {
			return Result{}, err
		}
		load.LoadSummary = cluster.Loads()
		load.PerServerBits = make([]int64, len(cluster.Servers))
		for id, sv := range cluster.Servers {
			load.PerServerBits[id] = sv.BitsIn
			if st.LocalFragment != nil {
				if f := sv.Received[st.OutName]; f != nil {
					load.Intermediate += f.Size()
				}
			}
		}
	}

	if st := &pl.Stages[last]; st.LocalFragment != nil {
		var frags []*data.Relation
		for _, sv := range cluster.Servers {
			if f := sv.Received[st.OutName]; f != nil && f.Size() > 0 {
				frags = append(frags, f)
			}
		}
		res.Output = pl.answers(frags) // a copy of every fragment: the cluster can be released
		return res, nil
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
		if pl.Stages[last].Plan.Dedup {
			res.Output = join.Dedup(res.Output)
		}
	}
	return res, nil
}

// answers reads a resident output — frags, in order — as tuples shaped by
// pl.Head: one flat value arena filled column by column, and one header
// array.
func (pl *Pipeline) answers(frags []*data.Relation) []data.Tuple {
	n := 0
	for _, f := range frags {
		n += f.Size()
	}
	if n == 0 {
		return nil
	}
	k := len(pl.Head)
	if pl.Head == nil {
		k = frags[0].Arity
	}
	flat := make([]int64, n*k)
	at := 0
	for _, f := range frags {
		for j := 0; j < k; j++ {
			c := j
			if pl.Head != nil {
				c = pl.Head[j]
			}
			for i, x := range f.Column(c) {
				flat[(at+i)*k+j] = x
			}
		}
		at += f.Size()
	}
	return data.Rows{K: k, N: n, Vals: flat}.AppendTuples(nil)
}
