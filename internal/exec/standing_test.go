package exec_test

import (
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/workload"
)

// answerTuple returns the tuple of atom a that derives the oracle's first
// answer on db.
func answerTuple(t *testing.T, q *query.Query, db *data.Database, a int) []int64 {
	t.Helper()
	answers := join.Join(q, join.FromDatabase(db))
	if len(answers) == 0 {
		t.Fatal("instance has no answers")
	}
	tu := make([]int64, len(q.Atoms[a].Vars))
	for p, v := range q.Atoms[a].Vars {
		tu[p] = answers[0][v]
	}
	return tu
}

// TestStandingRoundTripAllocatesNothing: once seeded, an insert-then-delete
// of a tuple that derives answers, then a Flush with an empty net delta,
// allocates nothing under each single-round strategy's router — routing,
// the delta join, the resident indexes and the counted output all run on
// retained scratch.
func TestStandingRoundTripAllocatesNothing(t *testing.T) {
	const p = 16
	zipf := data.NewDatabase()
	zipf.Put(workload.Zipf("S1", 2000, 1<<20, 1, 1.6, 100, 11))
	zipf.Put(workload.Zipf("S2", 2000, 1<<20, 1, 1.6, 100, 12))
	graph := data.NewDatabase()
	for i, name := range query.Triangle().AtomNames() {
		graph.Put(workload.SkewedGraph(name, 3000, 300, 1.3, int64(20+i)))
	}
	for _, tc := range []struct {
		name string
		q    *query.Query
		db   *data.Database
		plan func(q *query.Query, db *data.Database) *exec.PhysicalPlan
	}{
		{"hypercube", query.Join2(), zipf, func(q *query.Query, db *data.Database) *exec.PhysicalPlan {
			return hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: 1}).Phys
		}},
		{"skew-join", query.Join2(), zipf, func(q *query.Query, db *data.Database) *exec.PhysicalPlan {
			return skew.PlanJoin(q, db, skew.JoinConfig{P: p, Seed: 1}).Phys
		}},
		{"bin-combination", query.Triangle(), graph, func(q *query.Query, db *data.Database) *exec.PhysicalPlan {
			return skew.PlanGeneral(q, db, skew.GeneralConfig{P: p, Seed: 1}).Phys
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := exec.NewStanding(tc.plan(tc.q, tc.db), tc.q, tc.db, exec.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rel := tc.q.Atoms[0].Name
			tu := answerTuple(t, tc.q, tc.db, 0)
			// Take the tuple out of the standing state, so the measured
			// cycle re-derives its answers and then retracts them again.
			if err := st.ApplyOp(rel, tu, false); err != nil {
				t.Fatal(err)
			}
			if _, removed := st.Flush(); len(removed) == 0 {
				t.Fatal("deleting an answer's tuple retracted nothing")
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := st.ApplyOp(rel, tu, true); err != nil {
					t.Fatal(err)
				}
				if err := st.ApplyOp(rel, tu, false); err != nil {
					t.Fatal(err)
				}
				if added, removed := st.Flush(); added != nil || removed != nil {
					t.Fatalf("round trip flushed %d added, %d removed", len(added), len(removed))
				}
			})
			if allocs != 0 {
				t.Errorf("insert, delete and Flush allocate %v times, want 0", allocs)
			}
		})
	}
}

// TestStandingAdvanceFlatInDatabaseSize pins "O(|delta|), flat in database
// size": a two-op delta that derives one answer, flushed, then retracted
// and flushed, allocates the same bytes over a join2 instance of 2,000
// tuples per relation as over one of 200,000.
func TestStandingAdvanceFlatInDatabaseSize(t *testing.T) {
	bytesPerCycle := func(m int) uint64 {
		const domain = 1 << 20
		q := query.Join2()
		db := data.NewDatabase()
		db.Put(workload.Matching("S1", 2, m, domain, 1))
		db.Put(workload.Matching("S2", 2, m, domain, 2))
		st, err := exec.NewStanding(hypercube.BuildPlan(q, db, hypercube.Config{P: 16, Seed: 1}).Phys, q, db, exec.Config{})
		if err != nil {
			t.Fatal(err)
		}
		used := make(map[int64]bool, 2*m)
		for _, name := range []string{"S1", "S2"} {
			for _, z := range db.MustGet(name).Column(1) {
				used[z] = true
			}
		}
		z := int64(domain - 1)
		for used[z] {
			z--
		}
		cycle := func() {
			for _, insert := range []bool{true, false} {
				if err := st.ApplyOp("S1", []int64{5, z}, insert); err != nil {
					t.Fatal(err)
				}
				if err := st.ApplyOp("S2", []int64{7, z}, insert); err != nil {
					t.Fatal(err)
				}
				if added, removed := st.Flush(); len(added)+len(removed) != 1 {
					t.Fatalf("m=%d: flushed %d added, %d removed, want one answer", m, len(added), len(removed))
				}
			}
		}
		cycle() // warm the scratch
		const cycles = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < cycles; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / cycles
	}
	small, large := bytesPerCycle(2000), bytesPerCycle(200000)
	if small != large {
		t.Errorf("a two-op advance allocates %d B at 2k tuples per relation, %d B at 200k", small, large)
	}
}
