// Package rounds plans multi-round MPC query evaluation — the traditional
// one-join-per-round strategy the paper's introduction contrasts with its
// one-round HyperCube algorithm ("the traditional approach is to compute
// one join at a time leading to a number of communication rounds at least
// as large as the depth of the query plan").
//
// A logical plan is a left-deep sequence of binary join steps. The package
// is a pure planner: Lower turns the logical plan into an exec.Pipeline —
// one stage per step, each planned as §4.1's binary join on its own inputs
// (skew.Binary; heavy join keys get blocks of their own when skew-aware
// mode is on) — and exec.Execute, the executor every strategy shares, runs
// it on one persistent cluster, keeping every intermediate resident on the
// servers between rounds. Loads are tracked per round and summed per
// server, so the multi-round cost is directly comparable to the one-round
// algorithms.
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

// PipelinePlan is the planner output: the logical plan and its lowered
// pipeline, which exec.Execute runs. Pipe.PredictedSumMaxBits is the
// multi-round cost model the engine compares against one-round strategies:
// per round, the predicted maximum per-server load in bits (the balanced
// hash load or a heavy key's heaviest grid cell, with intermediate sizes
// estimated from base-relation statistics), summed over rounds. Plans are
// immutable and reusable across executions (the engine's plan cache holds
// them).
type PipelinePlan struct {
	Logical Plan
	// Pipe has one stage per step and answers in head order; a zero-step
	// (single-atom) plan's has no stages — it needs no communication, and
	// its answers are the base relation's columns in head order.
	Pipe *exec.Pipeline
}

// PlanPipeline builds the left-deep logical plan for q and lowers it over
// db's statistics, on a statistics pass of its own.
func PlanPipeline(q *query.Query, db *data.Database, cfg Config) *PipelinePlan {
	ps := new(stats.Pass)
	defer ps.Release()
	return Lower(BuildPlan(q), db, cfg, ps)
}
