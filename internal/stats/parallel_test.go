package stats

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/data"
)

// withParallelProcs forces GOMAXPROCS above the single-CPU floor so that
// CollectDB's per-relation fan-out runs even on single-core machines,
// restoring it afterwards.
func withParallelProcs(t *testing.T) {
	t.Helper()
	oldProcs := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(oldProcs) })
}

// randomRelation builds a skewed random relation: a small value domain on
// the first column forces repeats, the last column is a unique row ID so
// delta-style duplicate-free invariants hold.
func randomRelation(rng *rand.Rand, n int) *data.Relation {
	r := data.NewRelation("R", 3, 1<<20)
	vals := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		r.Add(int64(rng.Intn(vals)), int64(rng.Intn(50)), int64(i))
	}
	return r
}

func freqMapsEqual(a, b *FreqMap) bool {
	same := a.Total == b.Total && len(a.counts) == len(b.counts)
	a.Each(func(key []int64, c int64) { same = same && b.Count(key) == c })
	return same
}

func TestParallelCardinalityMatchesSerial(t *testing.T) {
	withParallelProcs(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		r := randomRelation(rng, 50+rng.Intn(2000))
		for attr := 0; attr < r.Arity; attr++ {
			seen := make(map[int64]struct{})
			for _, v := range r.Column(attr) {
				seen[v] = struct{}{}
			}
			if got := Frequencies(r, []int{attr}).Distinct(); got != len(seen) {
				t.Fatalf("trial %d attr %d: Cardinality = %d, want %d", trial, attr, got, len(seen))
			}
		}
	}
}

func TestParallelCollectDBMatchesSerial(t *testing.T) {
	withParallelProcs(t)
	rng := rand.New(rand.NewSource(17))
	db := data.NewDatabase()
	for _, name := range []string{"A", "B", "C"} {
		r := randomRelation(rng, 100+rng.Intn(1500))
		r.Name = name
		db.Put(r)
	}
	got := CollectDB(db, 8)
	for name, r := range db.Relations {
		want := new(Pass).Collect(r, 8)
		rs := got.Relations[name]
		if rs.M != want.M || rs.Threshold != want.Threshold {
			t.Fatalf("%s: M/Threshold mismatch", name)
		}
		for key, wf := range want.ByAttrs {
			if !freqMapsEqual(rs.ByAttrs[key], wf) {
				t.Fatalf("%s attrs %s: heavy maps diverge", name, key)
			}
		}
	}
}
