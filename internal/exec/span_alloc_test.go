package exec_test

import (
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/workload"
)

// TestSpanRoutedRoundDoesNotAllocatePerTuple: bulk-shipping whole heavy
// runs must not add allocations. A round's allocations are slab-dominated
// (the same tuples arrive either way, in the same batches) and span routing
// adds only a few per-span route compilations, so on the two-relation
// zipf(1.6) instance the span-routed round over the heavy-partitioned layout
// may allocate at most 1% more objects than the per-tuple round over the
// flat one.
func TestSpanRoutedRoundDoesNotAllocatePerTuple(t *testing.T) {
	const m, p = 20000, 64
	zipfDB := func() *data.Database {
		db := data.NewDatabase()
		db.Put(workload.Zipf("S1", m, 1<<20, 1, 1.6, 500, 1))
		db.Put(workload.Zipf("S2", m, 1<<20, 1, 1.6, 500, 2))
		return db
	}
	flat, part := zipfDB(), zipfDB() // content-identical; part gets the heavy layout

	plan := skew.PlanJoin(query.Join2(), flat, skew.JoinConfig{P: p, Seed: 3})
	if len(plan.Phys.PartitionHints) == 0 {
		t.Fatal("skew-join plan emitted no partition hints on the zipf instance")
	}
	for _, h := range plan.Phys.PartitionHints {
		part.EnsurePartitioned(h.Rel, h.Attr, p)
	}
	if part.MustGet("S1").Partitions() == nil {
		t.Fatal("EnsurePartitioned left S1 unpartitioned")
	}

	roundAllocs := func(db *data.Database) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := exec.Run(plan.Phys, db, exec.Config{SkipCompute: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	flatAllocs, spanAllocs := roundAllocs(flat), roundAllocs(part)
	if limit := flatAllocs * 1.01; spanAllocs > limit {
		t.Errorf("span-routed round allocates per routed tuple: %.0f allocs/op vs %.0f per-tuple baseline (limit %.0f)",
			spanAllocs, flatAllocs, limit)
	}
}
