package workload

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/stats"
)

func TestUniformExactCardinalityNoDuplicates(t *testing.T) {
	r := Uniform("S", 2, 1000, 10000, 1)
	if r.Size() != 1000 {
		t.Errorf("Size = %d", r.Size())
	}
	if r.ContainsDuplicates() {
		t.Error("duplicates present")
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform("S", 2, 100, 1000, 5)
	b := Uniform("S", 2, 100, 1000, 5)
	a.Sort()
	b.Sort()
	for i := 0; i < a.Size(); i++ {
		if a.Tuple(i).Key() != b.Tuple(i).Key() {
			t.Fatal("same seed produced different data")
		}
	}
}

func TestUniformSeedsDiffer(t *testing.T) {
	a := Uniform("S", 1, 50, 1000000, 1)
	b := Uniform("S", 1, 50, 1000000, 2)
	a.Sort()
	b.Sort()
	same := true
	for i := 0; i < a.Size(); i++ {
		if a.Tuple(i)[0] != b.Tuple(i)[0] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestUniformTooDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Uniform("S", 1, 9, 10, 1)
}

func TestMatchingColumnsDistinct(t *testing.T) {
	r := Matching("S", 2, 500, 10000, 3)
	if r.Size() != 500 {
		t.Fatalf("Size = %d", r.Size())
	}
	for c := 0; c < 2; c++ {
		stats.Frequencies(r, []int{c}).Each(func(k []int64, cnt int64) {
			if cnt != 1 {
				t.Fatalf("column %d value %d has frequency %d, want 1", c, k[0], cnt)
			}
		})
	}
}

func TestMatchingDensePermPath(t *testing.T) {
	// m*2 > domain exercises the permutation path.
	r := Matching("S", 2, 60, 100, 3)
	if r.Size() != 60 || r.ContainsDuplicates() {
		t.Error("dense matching wrong")
	}
}

func TestMatchingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Matching("S", 1, 11, 10, 1)
}

func TestSingleValueAllShareColumn(t *testing.T) {
	r := SingleValue("S", 2, 100, 1000, 1, 42, 9)
	if r.Size() != 100 {
		t.Fatalf("Size = %d", r.Size())
	}
	r.Each(func(_ int, tu data.Tuple) bool {
		if tu[1] != 42 {
			t.Fatalf("tuple %v does not share column value", tu)
		}
		return true
	})
	// Other column distinct → no duplicate tuples.
	if r.ContainsDuplicates() {
		t.Error("duplicates")
	}
}

func TestZipfSkewsColumn(t *testing.T) {
	r := Zipf("S", 10000, 100000, 1, 1.5, 1000, 11)
	if r.Size() != 10000 {
		t.Fatalf("Size = %d", r.Size())
	}
	f := stats.Frequencies(r, []int{1})
	hh := f.Heavy(10000 / 64).HeavyHitters(10000 / 64)
	if len(hh) == 0 {
		t.Error("Zipf(1.5) should produce heavy hitters at threshold m/64")
	}
	// Value 0 should be the most frequent.
	if f.Count(data.Tuple{0}) < f.Count(data.Tuple{500}) {
		t.Error("Zipf head not heavier than tail")
	}
}

func TestZipfNoDuplicateTuples(t *testing.T) {
	r := Zipf("S", 5000, 50000, 0, 2.0, 100, 13)
	if r.ContainsDuplicates() {
		t.Error("duplicates")
	}
}

// TestZipfPanicsOnFlatExponent: s ≤ 1 (and NaN) is refused with the
// generator's own precondition message, not math/rand's nil-Zipf crash.
func TestZipfPanicsOnFlatExponent(t *testing.T) {
	for _, s := range []float64{1, 0.8, 0, -1, math.NaN()} {
		func() {
			defer func() {
				if got := recover(); got != "workload: Zipf needs s > 1" {
					t.Errorf("Zipf(s=%v) panicked with %v", s, got)
				}
			}()
			Zipf("S", 100, 1000, 1, s, 50, 1)
		}()
	}
}

func TestPlantedHeavyCounts(t *testing.T) {
	specs := []HeavySpec{{Value: 5, Count: 300}, {Value: 9, Count: 100}}
	r := PlantedHeavy("S", 1000, 100000, 1, specs, 17)
	if r.Size() != 1000 {
		t.Fatalf("Size = %d", r.Size())
	}
	f := stats.Frequencies(r, []int{1})
	if f.Count(data.Tuple{5}) != 300 || f.Count(data.Tuple{9}) != 100 {
		t.Errorf("planted counts wrong: 5→%d 9→%d", f.Count(data.Tuple{5}), f.Count(data.Tuple{9}))
	}
	// Light values appear exactly once.
	f.Each(func(k []int64, c int64) {
		if k[0] != 5 && k[0] != 9 && c != 1 {
			t.Errorf("light value %d has count %d", k[0], c)
		}
	})
	if r.ContainsDuplicates() {
		t.Error("duplicates")
	}
}

func TestPlantedHeavyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PlantedHeavy("S", 10, 1000, 0, []HeavySpec{{Value: 1, Count: 11}}, 1)
}

func TestDegreeSequenceExact(t *testing.T) {
	degs := map[int64]int{3: 7, 8: 2, 15: 1}
	r := DegreeSequence("S", 10000, 0, degs, 21)
	if r.Size() != 10 {
		t.Fatalf("Size = %d, want 10", r.Size())
	}
	f := stats.Frequencies(r, []int{0})
	for v, d := range degs {
		if got := f.Count(data.Tuple{v}); got != int64(d) {
			t.Errorf("degree(%d) = %d, want %d", v, got, d)
		}
	}
}

func TestDegreeSequenceDeterministicAcrossMapOrder(t *testing.T) {
	degs := map[int64]int{1: 3, 2: 3, 3: 3, 4: 3, 5: 3}
	a := DegreeSequence("S", 1000, 0, degs, 5)
	b := DegreeSequence("S", 1000, 0, degs, 5)
	a.Sort()
	b.Sort()
	for i := 0; i < a.Size(); i++ {
		if a.Tuple(i).Key() != b.Tuple(i).Key() {
			t.Fatal("DegreeSequence not deterministic")
		}
	}
}

func TestSkewedGraphShape(t *testing.T) {
	g := SkewedGraph("G", 5000, 500, 1.5, 9)
	if g.Size() != 5000 {
		t.Fatalf("Size = %d", g.Size())
	}
	if g.ContainsDuplicates() {
		t.Error("duplicate edges")
	}
	g.Each(func(_ int, tu data.Tuple) bool {
		if tu[0] == tu[1] {
			t.Fatalf("self loop %v", tu)
		}
		if tu[0] < 0 || tu[0] >= 500 || tu[1] < 0 || tu[1] >= 500 {
			t.Fatalf("endpoint outside vertex set: %v", tu)
		}
		return true
	})
	// Power-law sources: node 0 must have far more out-edges than median.
	f := stats.Frequencies(g, []int{0})
	if f.Count(data.Tuple{0}) < 100 {
		t.Errorf("head degree %d too small for zipf(1.5)", f.Count(data.Tuple{0}))
	}
}

func TestSkewedGraphPanics(t *testing.T) {
	for _, f := range []func(){
		func() { SkewedGraph("G", 10, 2, 1.5, 1) },
		func() { SkewedGraph("G", 1000, 10, 1.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestForQuery(t *testing.T) {
	db := ForQuery([]AtomSpec{
		{Name: "S1", Arity: 2, M: 100, Domain: 1000},
		{Name: "S2", Arity: 2, M: 200, Domain: 1000},
	}, 1)
	if db.MustGet("S1").Size() != 100 || db.MustGet("S2").Size() != 200 {
		t.Error("ForQuery cardinalities wrong")
	}
	// Different atoms must not be identical data.
	a, b := db.MustGet("S1"), db.MustGet("S2")
	if a.Size() == b.Size() {
		t.Skip("sizes differ by construction here")
	}
	_ = a
}

func TestPow64Overflow(t *testing.T) {
	if pow64(1<<32, 3) != -1 {
		t.Error("pow64 should flag overflow")
	}
	if pow64(10, 3) != 1000 {
		t.Error("pow64(10,3) wrong")
	}
}
