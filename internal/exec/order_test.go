package exec_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/workload"
)

// TestOutputSequenceIndependentOfParallelism: a fragment holds its rows in
// (part, row) order whatever the worker count, and the local join and the
// header fill are deterministic, so every strategy returns the same
// Result.Output sequence at GOMAXPROCS 1, 2 and 8 — HyperCube, SkewJoin
// over a flat and over a heavy-partitioned relation, BinCombination, and
// the forced multi-round triangle through RunPipeline.
func TestOutputSequenceIndependentOfParallelism(t *testing.T) {
	const p = 16
	mk := func(rels ...*data.Relation) *data.Database {
		db := data.NewDatabase()
		for _, r := range rels {
			db.Put(r)
		}
		return db
	}
	zipf := func() *data.Database {
		return mk(workload.Zipf("S1", 1500, 1<<16, 1, 1.4, 100, 1), workload.Zipf("S2", 1500, 1<<16, 1, 1.4, 100, 2))
	}
	run := func(plan *exec.PhysicalPlan, db *data.Database) func() []data.Tuple {
		return func() []data.Tuple {
			res, err := exec.Run(plan, db, exec.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return res.Output
		}
	}

	matchings := mk(workload.Matching("S1", 2, 2000, 4000, 1), workload.Matching("S2", 2, 2000, 4000, 2))
	flat, part := zipf(), zipf()
	skewJoin := skew.PlanJoin(query.Join2(), flat, skew.JoinConfig{P: p, Seed: 3}).Phys
	for _, h := range skewJoin.PartitionHints {
		part.EnsurePartitioned(h.Rel, h.Attr, p)
	}
	if part.MustGet("S1").Partitions() == nil {
		t.Fatal("EnsurePartitioned left S1 unpartitioned")
	}
	graphs := mk(workload.SkewedGraph("S1", 1500, 300, 1.3, 4), workload.SkewedGraph("S2", 1500, 300, 1.3, 5),
		workload.SkewedGraph("S3", 1500, 300, 1.3, 6))
	uniform := mk(workload.Uniform("S1", 2, 3000, 256, 7), workload.Uniform("S2", 2, 3000, 256, 8),
		workload.Uniform("S3", 2, 3000, 256, 9))
	pipeline := rounds.PlanPipeline(query.Triangle(), uniform, rounds.Config{P: p, Seed: 1})

	cases := []struct {
		name string
		run  func() []data.Tuple
	}{
		{"hypercube/join2-matching", run(hypercube.BuildPlan(query.Join2(), matchings, hypercube.Config{P: p, Seed: 1}).Phys, matchings)},
		{"skew-join/flat", run(skewJoin, flat)},
		{"skew-join/partitioned", run(skewJoin, part)},
		{"bin-combination/triangle", run(skew.PlanGeneral(query.Triangle(), graphs, skew.GeneralConfig{P: p, Seed: 1}).Phys, graphs)},
		{"multi-round/triangle", func() []data.Tuple {
			_, out, err := pipeline.ExecuteWith(uniform, exec.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range cases {
		runtime.GOMAXPROCS(1)
		want := c.run()
		if len(want) == 0 {
			t.Fatalf("%s: no answers", c.name)
		}
		for _, procs := range []int{2, 8} {
			runtime.GOMAXPROCS(procs)
			for n := 0; n < 3; n++ {
				got := c.run()
				if !slices.EqualFunc(got, want, func(a, b data.Tuple) bool { return slices.Equal(a, b) }) {
					t.Fatalf("%s: GOMAXPROCS=%d run %d returned a different Output sequence than GOMAXPROCS=1 (%d vs %d answers)",
						c.name, procs, n, len(got), len(want))
				}
			}
		}
	}
}
