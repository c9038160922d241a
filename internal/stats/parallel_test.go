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

// TestSampleFrequenciesDense is the regression test for dense sampling:
// with sampleSize = m over m distinct values, the with-replacement
// estimator re-counted collided rows and scaled, reporting frequencies of 2
// and 3 for values that occur exactly once. Dense samples now draw without
// replacement, so every estimate is exact.
func TestSampleFrequenciesDense(t *testing.T) {
	m := 1000
	r := data.NewRelation("R", 1, 1<<20)
	for i := 0; i < m; i++ {
		r.Add(int64(i))
	}
	f := SampleFrequencies(r, []int{0}, m, 99)
	if len(f.counts) != m {
		t.Fatalf("sampleSize=m visited %d of %d distinct values", len(f.counts), m)
	}
	f.Each(func(k []int64, c int64) {
		if c != 1 {
			t.Fatalf("value %v estimated at %d, want exactly 1", k, c)
		}
	})
	// Dense but partial (sampleSize = m/2 ≥ m/2 boundary): counts stay
	// without replacement — no value can be counted more than once, so no
	// estimate exceeds the scale factor.
	half := SampleFrequencies(r, []int{0}, m/2, 99)
	if len(half.counts) != m/2 {
		t.Fatalf("half sample drew %d distinct rows, want %d (without replacement)", len(half.counts), m/2)
	}
	half.Each(func(k []int64, c int64) {
		if c != 2 { // one occurrence × scale m/(m/2)
			t.Fatalf("value %v estimated at %d, want 2", k, c)
		}
	})
	// Sparse samples keep the classical with-replacement estimator.
	sparse := SampleFrequencies(r, []int{0}, 10, 99)
	if len(sparse.counts) == 0 || len(sparse.counts) > 10 {
		t.Fatalf("sparse sample produced %d estimates", len(sparse.counts))
	}
}
