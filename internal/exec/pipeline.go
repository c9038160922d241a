package exec

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/mpc"
)

// Stage is one communication round of a multi-round Pipeline. Its Plan
// supplies the round's virtual-server layout and router (Query/Dedup are
// unused — pipeline stages compute resident fragments instead of shipping
// answers to the coordinator). The router sees two kinds of input, both by
// relation name: Base relations routed from the input servers' uniform
// partitions, and Resident relations — earlier stages' outputs — shuffled
// server-to-server out of the previous round's layout.
type Stage struct {
	// Plan is the stage's physical plan: Virtual, Physical, and Router are
	// used; Query, Dedup, and PredictedBits are ignored.
	Plan *PhysicalPlan
	// Base names database relations entering this round from the input
	// servers.
	Base []string
	// Resident names prior stages' outputs entering this round from the
	// servers currently holding them.
	Resident []string
	// LocalFragment is the stage's local computation: it produces the
	// server's fragment of the stage output (named OutName), which stays
	// resident on the server for the next stage. A nil return leaves the
	// server without a fragment.
	LocalFragment func(s *mpc.Server) *data.Relation
	// OutName/OutArity/OutDomain fix the output relation's schema, so the
	// final gather is correctly typed even when every fragment is empty.
	OutName   string
	OutArity  int
	OutDomain int64
}

// Pipeline is an ordered sequence of executor stages sharing one persistent
// cluster: stage i's output fragments stay resident on the servers and are
// re-shuffled into stage i+1's layout. This is the executable form of a
// multi-round plan, the multi-round counterpart of PhysicalPlan — cacheable,
// immutable once built, and safe to execute repeatedly.
type Pipeline struct {
	// Strategy labels the pipeline in diagnostics and panics.
	Strategy string
	// Physical is p, the physical machine count shared by every stage.
	Physical int
	// Stages are the rounds, in execution order; the last stage's output is
	// the pipeline's result.
	Stages []Stage
	// PredictedSumMaxBits is the planner's cost prediction: the sum over
	// rounds of the predicted maximum per-server load in bits — the
	// multi-round quantity comparable to a one-round plan's PredictedBits.
	PredictedSumMaxBits float64
}

// RoundLoad is the realized load of one pipeline stage.
type RoundLoad struct {
	// MaxBits/TotalBits are this round's received loads over virtual
	// servers (deltas — the persistent cluster accumulates across rounds).
	MaxBits   int64
	TotalBits int64
	// Intermediate is the number of tuples the stage's local computation
	// produced (resident, not yet shipped anywhere).
	Intermediate int
	// ResidentTuples is the number of intermediate tuples that entered this
	// round server-to-server — tuples that never round-tripped through the
	// coordinator or a data.Database.
	ResidentTuples int64
	// Replays counts this stage's communication rounds that tore and were
	// re-driven in place (earlier stages' resident state untouched).
	Replays int
}

// PipelineResult reports one execution of a pipeline.
type PipelineResult struct {
	// Output is the final stage's output, gathered column-wise from the
	// servers' resident fragments in server order.
	Output *data.Relation
	// Rounds holds per-stage loads; SumMaxBits sums the per-round maxima
	// (the busiest-server total the multi-round cost model predicts) and
	// MaxBitsPerRound is their maximum.
	Rounds          []RoundLoad
	MaxBitsPerRound int64
	SumMaxBits      int64
}

// RunPipeline executes the pipeline over db on one persistent cluster:
// every stage routes its base inputs from the database and shuffles its
// resident inputs out of the previous round's layout, computes its output
// fragments locally, and leaves them resident for the next stage. Only the
// last stage's output is gathered. cfg.SkipCompute skips the final stage's
// local join only (intermediate stages must run to feed later rounds) —
// loads are accounted either way; cfg.Scratch is unused (the pipeline's
// accounting is internal) but cfg.Clusters supplies the cluster pool the
// persistent cluster is drawn from and returned to. Routing errors are
// internal bugs (planners validate their layouts), so RunPipeline panics
// on them; the errors it returns are cfg.Ctx's cancellation — checked
// before every round and at send-part checkpoints inside rounds — and
// injected faults from cfg.Faults (mpc.ErrTornRound, mpc.ErrComputeFailed)
// that outlived the cfg.Retry budget. Recovery is round-granular: a torn
// round k is re-driven in place against the surviving resident state
// (rounds 1..k-1 are never repeated), and a failed compute phase re-runs
// only the failed servers. Either way the cluster is released back to the
// pool.
func RunPipeline(pl *Pipeline, db *data.Database, cfg Config) (PipelineResult, error) {
	if len(pl.Stages) == 0 {
		panic(fmt.Sprintf("exec: %s pipeline has no stages", pl.Strategy))
	}
	if pl.Physical < 1 {
		panic(fmt.Sprintf("exec: %s pipeline has %d physical servers", pl.Strategy, pl.Physical))
	}
	maxVirtual := 1
	for i := range pl.Stages {
		st := &pl.Stages[i]
		if st.Plan == nil || st.Plan.Router == nil {
			panic(fmt.Sprintf("exec: %s stage %d has no plan/router", pl.Strategy, i))
		}
		if st.Plan.Virtual < 1 {
			panic(fmt.Sprintf("exec: %s stage %d has %d virtual servers", pl.Strategy, i, st.Plan.Virtual))
		}
		if st.LocalFragment == nil || st.OutName == "" {
			panic(fmt.Sprintf("exec: %s stage %d has no local computation/output name", pl.Strategy, i))
		}
		if st.Plan.Virtual > maxVirtual {
			maxVirtual = st.Plan.Virtual
		}
	}

	if err := cfg.ctxErr(); err != nil {
		return PipelineResult{}, err
	}
	pool, cluster, rt := cfg.acquire(maxVirtual)
	defer pool.Put(cluster)
	prev := make([]int64, maxVirtual)
	var res PipelineResult
	for i := range pl.Stages {
		st := &pl.Stages[i]
		if err := cfg.ctxErr(); err != nil {
			return PipelineResult{}, err
		}
		for id, sv := range cluster.Servers {
			prev[id] = sv.BitsIn
		}
		var load RoundLoad
		for _, sv := range cluster.Servers {
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
				if cfg.recoverable(err) {
					return PipelineResult{}, err
				}
				panic(fmt.Sprintf("exec: %s stage %d resident shuffle failed: %v", pl.Strategy, i, err))
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
				if cfg.recoverable(err) {
					return PipelineResult{}, err
				}
				panic(fmt.Sprintf("exec: %s stage %d routing failed: %v", pl.Strategy, i, err))
			}
		}
		local := st.LocalFragment
		if cfg.SkipCompute && i == len(pl.Stages)-1 {
			local = func(*mpc.Server) *data.Relation { return nil }
		}
		err := rt.driveCompute(pl.Strategy, i, func(s *mpc.Server) { s.Install(local(s)) })
		if err != nil {
			return PipelineResult{}, err
		}
		for id, sv := range cluster.Servers {
			d := sv.BitsIn - prev[id]
			if d > load.MaxBits {
				load.MaxBits = d
			}
			load.TotalBits += d
			if f := sv.Received[st.OutName]; f != nil {
				load.Intermediate += f.Size()
			}
		}
		res.Rounds = append(res.Rounds, load)
		res.SumMaxBits += load.MaxBits
		if load.MaxBits > res.MaxBitsPerRound {
			res.MaxBitsPerRound = load.MaxBits
		}
	}

	last := &pl.Stages[len(pl.Stages)-1]
	out := data.NewRelation(last.OutName, last.OutArity, last.OutDomain)
	for _, sv := range cluster.Servers {
		if f := sv.Received[last.OutName]; f != nil && f.Size() > 0 {
			out.AppendColumns(f.Columns(), f.Size())
		}
	}
	res.Output = out // a copy of every fragment: the cluster can be released
	return res, nil
}
