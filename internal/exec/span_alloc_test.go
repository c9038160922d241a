package exec_test

import (
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/workload"
)

// TestSpanRoutedRoundDoesNotAllocatePerTuple: a round allocates per part,
// per receiving fragment and per compiled span, never per routed tuple. The
// two-relation zipf(1.6) skew join at m = 20k is scaled to m = 80k by
// copying every tuple four times under shifted x values, which keeps the
// degree profile — and so the heavy hitters, the plan and the receiving
// fragments — the same; quadrupling the routed tuples may not raise a
// route-only round's allocation count by more than 2 %, per-tuple over the
// flat layout or span-routed over the heavy-partitioned one.
func TestSpanRoutedRoundDoesNotAllocatePerTuple(t *testing.T) {
	const m, p = 20000, 64
	scaled := func(rel *data.Relation, copies int64) *data.Relation {
		out := data.NewRelation(rel.Name, 2, copies*rel.Domain)
		for c := int64(0); c < copies; c++ {
			for i := 0; i < rel.Size(); i++ {
				out.Add(rel.At(i, 0)+c*rel.Domain, rel.At(i, 1))
			}
		}
		return out
	}
	roundAllocs := func(copies int64, partitioned bool) float64 {
		db := data.NewDatabase()
		db.Put(scaled(workload.Zipf("S1", m, 1<<20, 1, 1.6, 500, 1), copies))
		db.Put(scaled(workload.Zipf("S2", m, 1<<20, 1, 1.6, 500, 2), copies))
		plan := skew.PlanJoin(query.Join2(), db, skew.JoinConfig{P: p, Seed: 3})
		if len(plan.Phys.PartitionHints) == 0 {
			t.Fatal("skew-join plan emitted no partition hints on the zipf instance")
		}
		if partitioned {
			for _, h := range plan.Phys.PartitionHints {
				db.EnsurePartitioned(h.Rel, h.Attr, p)
			}
			if db.MustGet("S1").Partitions() == nil {
				t.Fatal("EnsurePartitioned left S1 unpartitioned")
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := exec.Run(plan.Phys, db, exec.Config{SkipCompute: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, partitioned := range []bool{false, true} {
		small, large := roundAllocs(1, partitioned), roundAllocs(4, partitioned)
		t.Logf("partitioned=%v: %.0f allocs at m=20k, %.0f at m=80k", partitioned, small, large)
		if limit := small * 1.02; large > limit {
			t.Errorf("partitioned=%v: a round allocates per routed tuple: %.0f allocs at m=80k vs %.0f at m=20k (limit %.0f)",
				partitioned, large, small, limit)
		}
	}
}
