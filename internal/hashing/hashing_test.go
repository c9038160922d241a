package hashing

import (
	"math"
	"testing"
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
