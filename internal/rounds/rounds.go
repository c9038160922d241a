// Package rounds plans multi-round MPC query evaluation — the traditional
// one-join-per-round strategy the paper's introduction contrasts with its
// one-round HyperCube algorithm ("the traditional approach is to compute
// one join at a time leading to a number of communication rounds at least
// as large as the depth of the query plan").
//
// A logical plan is a left-deep sequence of binary join steps. The package
// is a pure planner: Lower turns the logical plan into an exec.Pipeline —
// one executor stage per step, each planned as §4.1's binary join on its
// own inputs (skew.Binary; heavy join keys get blocks of their own when
// skew-aware mode is on) — and exec.RunPipeline executes it on one
// persistent cluster, keeping every intermediate resident on the servers
// between rounds. Loads
// are tracked per round and summed per server, so the multi-round cost is
// directly comparable to the one-round algorithms.
package rounds

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/stats"
)

// Step is one binary join in the plan: join Left and Right (base atom
// names or prior step outputs) into Output.
type Step struct {
	Left, Right string
	Output      string
	// LeftVars/RightVars give the query-variable index of every column of
	// the two inputs; OutVars is the schema of the result.
	LeftVars, RightVars, OutVars []int
	// JoinVars are the shared variables (the repartition keys).
	JoinVars []int
}

// Plan is a left-deep multi-round plan for a query.
type Plan struct {
	Query *query.Query
	Steps []Step
}

// BuildPlan constructs a greedy left-deep plan: start from the first atom,
// repeatedly join in the atom sharing the most variables with the current
// schema (avoiding cartesian steps whenever the query is connected).
func BuildPlan(q *query.Query) Plan {
	if err := q.Validate(); err != nil {
		panic(fmt.Sprintf("rounds: invalid query: %v", err))
	}
	used := make([]bool, q.NumAtoms())
	cur := q.Atoms[0]
	used[0] = true
	curName := cur.Name
	curVars := append([]int(nil), cur.Vars...)
	var steps []Step
	for step := 1; step < q.NumAtoms(); step++ {
		best, bestShared := -1, -1
		for j, a := range q.Atoms {
			if used[j] {
				continue
			}
			shared := 0
			for _, v := range a.Vars {
				if containsInt(curVars, v) {
					shared++
				}
			}
			if shared > bestShared {
				best, bestShared = j, shared
			}
		}
		atom := q.Atoms[best]
		used[best] = true
		var joinVars []int
		for _, v := range atom.Vars {
			if containsInt(curVars, v) {
				joinVars = append(joinVars, v)
			}
		}
		outVars := append([]int(nil), curVars...)
		for _, v := range atom.Vars {
			if !containsInt(outVars, v) {
				outVars = append(outVars, v)
			}
		}
		outName := fmt.Sprintf("tmp%d", step)
		if step == q.NumAtoms()-1 {
			outName = "result"
		}
		// Intermediate names must not shadow base atoms: routers and
		// resident shuffles identify stage inputs by relation name.
		for q.AtomIndex(outName) >= 0 {
			outName += "_"
		}
		steps = append(steps, Step{
			Left: curName, Right: atom.Name, Output: outName,
			LeftVars:  append([]int(nil), curVars...),
			RightVars: append([]int(nil), atom.Vars...),
			OutVars:   outVars,
			JoinVars:  joinVars,
		})
		curName, curVars = outName, outVars
	}
	return Plan{Query: q, Steps: steps}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Config controls multi-round planning.
type Config struct {
	P    int
	Seed uint64
	// SkewAware enables §4.1's per-step heavy-hitter handling: heavy join
	// keys get blocks of p_h servers instead of a single hash bucket.
	// Without it every step is a plain hash join.
	SkewAware bool
}

// headOrderTuples materializes rel — whose columns follow the schema vars —
// as head-ordered tuples. The permutation reorders column pointers; the
// copy is one column-major pass into a single flat backing array.
func headOrderTuples(q *query.Query, rel *data.Relation, vars []int) []data.Tuple {
	k := q.NumVars()
	n := rel.Size()
	if n == 0 {
		return nil
	}
	cols := make([][]int64, k)
	for pos, v := range vars {
		cols[v] = rel.Column(pos)
	}
	flat := make([]int64, n*k)
	for v, col := range cols {
		for i, x := range col {
			flat[i*k+v] = x
		}
	}
	return data.Rows{K: k, N: n, Vals: flat}.AppendTuples(nil)
}

// PipelinePlan is the planner output: the logical plan lowered to an
// executor pipeline, plus the cost prediction the engine compares against
// one-round strategies. Plans are immutable and reusable across executions
// (the engine's plan cache holds them).
type PipelinePlan struct {
	Logical Plan
	// Pipe is the lowered pipeline; nil for zero-step (single-atom) plans,
	// which need no communication at all.
	Pipe *exec.Pipeline
	// PredictedSumMaxBits is the planner's multi-round cost model: per
	// round, the predicted maximum per-server load in bits (the balanced
	// hash load or a heavy key's heaviest grid cell, with intermediate sizes
	// estimated from base-relation statistics), summed over rounds.
	PredictedSumMaxBits float64
}

// PlanPipeline builds the left-deep logical plan for q and lowers it over
// db's statistics, on a statistics pass of its own.
func PlanPipeline(q *query.Query, db *data.Database, cfg Config) *PipelinePlan {
	ps := new(stats.Pass)
	defer ps.Release()
	return Lower(BuildPlan(q), db, cfg, ps)
}

// ExecuteWith runs the pipeline over db with the caller's executor
// configuration (the engine passes its cluster pool so cached pipelines
// reuse warm clusters, and its context so a long pipeline aborts between
// rounds) and returns the per-round loads — stage i is Logical.Steps[i] —
// with the answers permuted into head order. A zero-step (single-atom) plan
// needs no communication: its loads are zero and its answers are the base
// relation's columns in head order. The only errors are ec.Ctx's
// cancellation and injected faults that outlived ec.Retry.
func (pp *PipelinePlan) ExecuteWith(db *data.Database, ec exec.Config) (exec.PipelineResult, []data.Tuple, error) {
	q := pp.Logical.Query
	if len(pp.Logical.Steps) == 0 {
		atom := q.Atoms[0]
		return exec.PipelineResult{}, headOrderTuples(q, db.MustGet(atom.Name), atom.Vars), nil
	}
	pr, err := exec.RunPipeline(pp.Pipe, db, ec)
	if err != nil {
		return exec.PipelineResult{}, nil, err
	}
	last := pp.Logical.Steps[len(pp.Logical.Steps)-1]
	return pr, headOrderTuples(q, pr.Output, last.OutVars), nil
}
