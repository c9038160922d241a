package hashing

import (
	"math"
	"testing"

	"repro/internal/data"
)

func TestFamilyDeterministic(t *testing.T) {
	f1 := NewFamily(7)
	f2 := NewFamily(7)
	for dim := 0; dim < 3; dim++ {
		for v := int64(0); v < 100; v++ {
			if f1.Hash(dim, v, 17) != f2.Hash(dim, v, 17) {
				t.Fatal("same seed must give same hashes")
			}
		}
	}
}

func TestFamilySeedsDiffer(t *testing.T) {
	f1, f2 := NewFamily(1), NewFamily(2)
	same := 0
	for v := int64(0); v < 1000; v++ {
		if f1.Hash(0, v, 64) == f2.Hash(0, v, 64) {
			same++
		}
	}
	// Expect ~1000/64 ≈ 16 collisions; 100 is a generous cap.
	if same > 100 {
		t.Errorf("seeds look correlated: %d/1000 agreements", same)
	}
}

func TestFamilyDimsIndependent(t *testing.T) {
	f := NewFamily(3)
	same := 0
	for v := int64(0); v < 1000; v++ {
		if f.Hash(0, v, 64) == f.Hash(1, v, 64) {
			same++
		}
	}
	if same > 100 {
		t.Errorf("dims look correlated: %d/1000 agreements", same)
	}
}

func TestHashRange(t *testing.T) {
	f := NewFamily(11)
	for v := int64(0); v < 500; v++ {
		h := f.Hash(2, v, 7)
		if h < 0 || h >= 7 {
			t.Fatalf("Hash out of range: %d", h)
		}
	}
	if f.Hash(0, 42, 1) != 0 {
		t.Error("single bucket must map to 0")
	}
}

func TestHashPanicsOnZeroBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewFamily(0).Hash(0, 1, 0)
}

func TestHashUniformity(t *testing.T) {
	// Chi-square-ish sanity: 64k values into 16 buckets should be within
	// 5% of uniform per bucket.
	f := NewFamily(99)
	const n, b = 65536, 16
	counts := make([]int, b)
	for v := int64(0); v < n; v++ {
		counts[f.Hash(0, v, b)]++
	}
	want := float64(n) / b
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d load %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestGridBucketLinearization(t *testing.T) {
	g := NewGrid([]int{3, 4}, NewFamily(5))
	if g.Size() != 12 {
		t.Fatalf("Size = %d", g.Size())
	}
	seen := make(map[int]bool)
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			idx := g.Linear([]int{a, b})
			if idx < 0 || idx >= 12 || seen[idx] {
				t.Fatalf("Linear(%d,%d) = %d invalid or duplicate", a, b, idx)
			}
			seen[idx] = true
		}
	}
}

func TestGridCoordsMatchBucket(t *testing.T) {
	g := NewGrid([]int{4, 5, 6}, NewFamily(8))
	tu := data.Tuple{10, 20, 30}
	if g.Linear(g.Coords(tu)) != g.Bucket(tu) {
		t.Error("Coords/Linear disagree with Bucket")
	}
}

func TestGridPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid([]int{0}, NewFamily(1)) },
		func() { NewGrid([]int{2}, NewFamily(1)).Coords(data.Tuple{1, 2}) },
		func() { NewGrid([]int{2}, NewFamily(1)).Linear([]int{5}) },
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

// Lemma 3.1 item 2: if every attribute value occurs at most once (a
// matching), the max load is O(m/p).
func TestMeasureLoadsMatching(t *testing.T) {
	const m = 1 << 16
	r := data.NewRelation("R", 2, m*4)
	for i := int64(0); i < m; i++ {
		r.Add(i, i+m) // all values distinct per column
	}
	g := NewGrid([]int{16, 16}, NewFamily(123))
	rep := MeasureLoads(r, g)
	mean := float64(m) / 256
	if float64(rep.Max) > 3*mean {
		t.Errorf("matching max load %d exceeds 3× mean %v", rep.Max, mean)
	}
	if rep.Tuples != m || rep.Buckets != 256 {
		t.Errorf("report bookkeeping wrong: %+v", rep)
	}
}

// Lemma 3.1 item 4 / Example B.2: all tuples sharing the first attribute
// value forces max load ≥ m / p_2 (only the other dimension spreads).
func TestMeasureLoadsAdversarial(t *testing.T) {
	const m = 4096
	r := data.NewRelation("R", 2, m*2)
	for i := int64(0); i < m; i++ {
		r.Add(0, i) // first column constant
	}
	g := NewGrid([]int{8, 4}, NewFamily(7))
	rep := MeasureLoads(r, g)
	if rep.Max < m/4 {
		t.Errorf("adversarial max load %d should be >= m/p2 = %d", rep.Max, m/4)
	}
	// And bounded by the lemma's m/min(p_i) guarantee times a constant.
	if float64(rep.Max) > 3.1*float64(m)/4 {
		t.Errorf("adversarial max load %d exceeds (3r+1)·m/min p_i", rep.Max)
	}
}

// Lemma 3.1 item 1: expected load per bucket is m/p; totals must add up.
func TestMeasureLoadsConservation(t *testing.T) {
	const m = 1000
	r := data.NewRelation("R", 1, 100000)
	for i := int64(0); i < m; i++ {
		r.Add(i * 97 % 100000)
	}
	g := NewGrid([]int{10}, NewFamily(42))
	rep := MeasureLoads(r, g)
	if rep.Mean != 100 {
		t.Errorf("Mean = %v", rep.Mean)
	}
	if rep.Max < 100 {
		t.Errorf("max %d below mean", rep.Max)
	}
	if rep.Min > 100 {
		t.Errorf("min %d above mean", rep.Min)
	}
	if len(rep.PerDim) != 1 || rep.PerDim[0] < rep.Max {
		t.Errorf("PerDim = %v", rep.PerDim)
	}
}

func TestUint64Deterministic(t *testing.T) {
	f := NewFamily(1)
	if f.Uint64(0, 5) != f.Uint64(0, 5) {
		t.Error("Uint64 not deterministic")
	}
	if f.Uint64(0, 5) == f.Uint64(1, 5) {
		t.Error("Uint64 should differ across dims (w.h.p.)")
	}
}

// Bucket returns the linearized bucket index of a full tuple.
func (g *Grid) Bucket(t data.Tuple) int {
	b := 0
	for i, v := range t {
		b += g.family.Hash(i, v, g.Shares[i]) * g.stride[i]
	}
	return b
}
