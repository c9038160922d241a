package exec_test

import (
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/workload"
)

// countingRouter counts the rows routed through the router it wraps. One
// instance serves every sender of a round, so the count is atomic.
type countingRouter struct {
	mpc.Router
	rows *atomic.Int64
}

func (r countingRouter) Destinations(rel *data.Relation, row int, dst []int) []int {
	r.rows.Add(1)
	return r.Router.Destinations(rel, row, dst)
}

// countRoutes returns a copy of pipe whose every stage routes through a
// countingRouter adding to rows.
func countRoutes(pipe *exec.Pipeline, rows *atomic.Int64) *exec.Pipeline {
	out := *pipe
	out.Stages = slices.Clone(pipe.Stages)
	for i := range out.Stages {
		plan := *out.Stages[i].Plan
		plan.Router = countingRouter{plan.Router, rows}
		out.Stages[i].Plan = &plan
	}
	return &out
}

func sortedKeys(ts []data.Tuple) []string {
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = t.Key()
	}
	slices.Sort(keys)
	return keys
}

// TestRoundReplayRoutesLessThanFullRetry: on the triangle pipeline over
// matchings, tearing round k's first attempt and replaying only round k
// routes no more rows than failing the execution and re-running it from
// scratch, and strictly fewer once rounds before k routed anything (k ≥ 2):
// the replay keeps their resident output. Work is counted in routed rows, not
// time. The replayed run returns the clean run's output and per-round loads.
func TestRoundReplayRoutesLessThanFullRetry(t *testing.T) {
	db := data.NewDatabase()
	for j, name := range []string{"S1", "S2", "S3"} {
		db.Put(workload.Matching(name, 2, 5000, 1<<20, int64(j+1)))
	}
	pipe := rounds.PlanPipeline(query.Triangle(), db, rounds.Config{P: 64, Seed: 3}).Pipe
	total := uint64(0)
	for _, st := range pipe.Stages {
		if len(st.Resident) > 0 {
			total++
		}
		if len(st.Base) > 0 {
			total++
		}
	}
	if total < 2 {
		t.Fatalf("triangle pipeline drives %d rounds, want at least 2", total)
	}
	clean, err := exec.Execute(pipe, db, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= total; k++ {
		// A schedule tearing round k's first attempt only: its replay, every
		// other round's first attempt and the full retry's rerun rounds
		// k+1..k+total all stay clean.
		var seed uint64
		for ; seed < 200000; seed++ {
			f := &mpc.Faults{Seed: seed, TornRound: 0.5}
			ok := f.WouldTearRoundAttempt(k, 1) && !f.WouldTearRoundAttempt(k, 2)
			for r := uint64(1); ok && r <= k+total; r++ {
				ok = r == k || !f.WouldTearRoundAttempt(r, 1)
			}
			if ok {
				break
			}
		}
		if seed == 200000 {
			t.Fatalf("no fault seed under 200000 tears exactly round %d of %d", k, total)
		}

		var replayRows atomic.Int64
		var rec exec.Recovery
		res, err := exec.Execute(countRoutes(pipe, &replayRows), db, exec.Config{
			Faults:   &mpc.Faults{Seed: seed, TornRound: 0.5},
			Retry:    exec.Retry{BaseBackoff: -1},
			Recovery: &rec,
		})
		if err != nil {
			t.Fatalf("round %d: replay: %v", k, err)
		}
		if rec.RoundsReplayed != 1 {
			t.Fatalf("round %d: %d rounds replayed, want 1", k, rec.RoundsReplayed)
		}
		if !slices.Equal(sortedKeys(res.Output), sortedKeys(clean.Output)) {
			t.Fatalf("round %d: the replayed output differs from the clean run's", k)
		}
		for i, rl := range res.Rounds {
			rl.Replays = clean.Rounds[i].Replays
			if !reflect.DeepEqual(rl, clean.Rounds[i]) {
				t.Fatalf("round %d: stage %d load %+v, clean %+v", k, i, res.Rounds[i], clean.Rounds[i])
			}
		}

		var fullRows atomic.Int64
		full := countRoutes(pipe, &fullRows)
		cfg := exec.Config{Faults: &mpc.Faults{Seed: seed, TornRound: 0.5}, Retry: exec.Retry{MaxAttempts: -1}}
		if _, err := exec.Execute(full, db, cfg); !errors.Is(err, mpc.ErrTornRound) {
			t.Fatalf("round %d: full retry's first run: err = %v, want ErrTornRound", k, err)
		}
		if _, err := exec.Execute(full, db, cfg); err != nil {
			t.Fatalf("round %d: full retry's rerun: %v", k, err)
		}

		replay, whole := replayRows.Load(), fullRows.Load()
		t.Logf("round %d torn: replay routes %d rows, full retry %d", k, replay, whole)
		if replay > whole || k >= 2 && replay == whole {
			t.Errorf("round %d torn: replay routes %d rows, full retry %d; want fewer (no more for round 1)", k, replay, whole)
		}
	}
}
