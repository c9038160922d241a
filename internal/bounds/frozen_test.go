package bounds

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// frozenInstance is one (query, database, p) whose bounds were recorded
// from the map-based implementation (stats.Frequencies + a seen-map
// projection + the map-based join) before the GroupIndex kernel replaced
// it. The kernel must reproduce them bit for bit: Eq. 12 is a float sum, so
// that holds only if the support is enumerated in the same order.
type frozenInstance struct {
	name string
	q    *query.Query
	db   *data.Database
	p    int

	best   uint64 // math.Float64bits of BestLower's value
	desc   string
	digest uint64 // residualDigest over every non-empty variable set
}

func frozenInstances() []frozenInstance {
	// The three E6 instances at Quick scale.
	const m, p = 4096, 16
	domain := int64(1 << 21)
	hv := []workload.HeavySpec{{Value: 1, Count: m / 4}, {Value: 2, Count: m / 8}}
	skewed := data.NewDatabase()
	skewed.Put(workload.PlantedHeavy("S1", m, domain, 1, hv, 1))
	skewed.Put(workload.PlantedHeavy("S2", m, domain, 1, hv, 2))
	matching := data.NewDatabase()
	matching.Put(workload.Matching("S1", 2, m, domain, 3))
	matching.Put(workload.Matching("S2", 2, m, domain, 4))
	popular := data.NewDatabase()
	popular.Put(workload.PlantedHeavy("S1", m/4, domain, 0, []workload.HeavySpec{{Value: 5, Count: m / 16}}, 5))
	popular.Put(workload.Uniform("S2", 2, m/4, 2048, 6))
	popular.Put(workload.PlantedHeavy("S3", m/4, domain, 1, []workload.HeavySpec{{Value: 5, Count: m / 16}}, 7))
	// bench/'s cold_plan input at seed 1.
	graphs := data.NewDatabase()
	for i, name := range []string{"S1", "S2", "S3"} {
		graphs.Put(workload.SkewedGraph(name, 5000, 2000, 1.2, 1+int64(i)*7919))
	}
	return []frozenInstance{
		{"E6 join2 skewed z", query.Join2(), skewed, p, 0x40c77a8ebf01f31f, "residual x=[2]", 0x6c31184316f61fd4},
		{"E6 join2 matching", query.Join2(), matching, p, 0x40c5000000000000, "simple (x = ∅)", 0x3e331dbf1c1d13ea},
		{"E6 C3 popular x1", query.Triangle(), popular, p, 0x40b554037952960c, "simple (x = ∅)", 0xacd7dde8cda41f9f},
		{"cold_plan triangle seed 1", query.Triangle(), graphs, 64, 0x40badb0000000000, "simple (x = ∅)", 0x113035ad00037b17},
	}
}

// residualDigest folds what residual returns for every non-empty variable
// set — the value, then the table in its returned order (X, U, Bound) —
// into one FNV-1a hash of the exact float bits.
func residualDigest(q *query.Query, residual func(query.VarSet) (float64, []ResidualBound)) uint64 {
	h := fnv.New64a()
	for mask := 1; mask < 1<<q.NumVars(); mask++ {
		var vs []int
		for i := 0; i < q.NumVars(); i++ {
			if mask&(1<<i) != 0 {
				vs = append(vs, i)
			}
		}
		b, table := residual(query.NewVarSet(vs...))
		fmt.Fprintf(h, "%d:%x;", mask, math.Float64bits(b))
		for _, row := range table {
			fmt.Fprintf(h, "%v", row.X)
			for _, u := range row.U {
				fmt.Fprintf(h, ",%x", math.Float64bits(u))
			}
			fmt.Fprintf(h, "=%x;", math.Float64bits(row.Bound))
		}
	}
	return h.Sum64()
}

func TestBoundsBitIdenticalToFrozen(t *testing.T) {
	for _, in := range frozenInstances() {
		best, desc := BestLower(in.q, in.db, in.p, 0)
		digest := residualDigest(in.q, func(x query.VarSet) (float64, []ResidualBound) {
			return ResidualLower(in.q, x, in.db, in.p)
		})
		if math.Float64bits(best) != in.best || desc != in.desc {
			t.Errorf("%s: BestLower = %v (%#x) %q, frozen %v (%#x) %q", in.name,
				best, math.Float64bits(best), desc, math.Float64frombits(in.best), in.best, in.desc)
		}
		if digest != in.digest {
			t.Errorf("%s: ResidualLower digest %#x, frozen %#x", in.name, digest, in.digest)
		}
		// BestLower reads every variable set's groupings through one
		// statistics pass; the exported ResidualLower starts a fresh one per
		// call. Same bits, and each (relation, attribute subset) grouped once.
		ps := new(stats.Pass)
		memoized := residualDigest(in.q, func(x query.VarSet) (float64, []ResidualBound) {
			return residualLower(in.q, x, in.db, in.p, ps)
		})
		if memoized != digest {
			t.Errorf("%s: shared-pass residual bounds digest %#x, fresh-pass %#x", in.name, memoized, digest)
		}
		subsets := 0
		for _, name := range in.db.Names() {
			subsets += 1<<in.db.MustGet(name).Arity - 1
		}
		if got := ps.Groupings(); got != subsets {
			t.Errorf("%s: the pass built %d groupings for %d (relation, attribute subset) pairs", in.name, got, subsets)
		}
	}
}
