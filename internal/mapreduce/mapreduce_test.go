package mapreduce

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
)

func TestReplicationLowerBoundTriangleExample52(t *testing.T) {
	// Example 5.2: equal sizes M, the (1/2,1/2,1/2) packing maximizes and
	// r ≥ (3/2)·L/(3M)·(M/L)^{3/2} = (1/2)·sqrt(M/L)... up to constants,
	// the shape is Θ(sqrt(M/L)).
	q := query.Triangle()
	M := math.Pow(2, 20)
	for _, l := range []float64{M / 4, M / 16, M / 64} {
		got := ReplicationLowerBound(q, []float64{M, M, M}, l)
		want := 0.5 * math.Sqrt(M/l)
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("L=%v: r_lb = %v, want %v", l, got, want)
		}
	}
}

func TestReplicationLowerBoundScalesAsSqrt(t *testing.T) {
	// Quartering L must double the bound for the triangle.
	q := query.Triangle()
	M := math.Pow(2, 24)
	r1 := ReplicationLowerBound(q, []float64{M, M, M}, M/16)
	r2 := ReplicationLowerBound(q, []float64{M, M, M}, M/64)
	if math.Abs(r2/r1-2) > 1e-9 {
		t.Errorf("r(L/4)/r(L) = %v, want 2", r2/r1)
	}
}

func TestReplicationLowerBoundUnequalSizes(t *testing.T) {
	// The theorem extends [1] to unequal sizes; just verify the bound is
	// monotone in relation sizes.
	q := query.Triangle()
	small := ReplicationLowerBound(q, []float64{1 << 18, 1 << 18, 1 << 18}, 1<<14)
	large := ReplicationLowerBound(q, []float64{1 << 20, 1 << 20, 1 << 20}, 1<<14)
	if large <= small {
		t.Errorf("bound not monotone: %v vs %v", small, large)
	}
}

func TestReplicationLowerBoundClampsSmallRelations(t *testing.T) {
	// Relations smaller than L contribute factor 1 (footnote 5: send the
	// whole relation for free).
	q := query.Join2()
	got := ReplicationLowerBound(q, []float64{1 << 20, 16}, 1<<10)
	if got <= 0 || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("bound = %v", got)
	}
}

func TestReplicationLowerBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ReplicationLowerBound(query.Join2(), []float64{1, 1}, 0)
}

func TestMinReducersTriangle(t *testing.T) {
	// Example 5.2: p ≥ Ω((M/L)^{3/2}).
	q := query.Triangle()
	M := math.Pow(2, 20)
	l := M / 16
	got := MinReducers(q, []float64{M, M, M}, l)
	want := 1.5 * math.Pow(M/l, 1.5) // (u·L/ΣM · (M/L)^{3/2}) · ΣM/L with u=3/2
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("MinReducers = %v, want %v", got, want)
	}
}

// TestMeasuredReplicationShape checks §5 on the triangle: more reducers
// mean a smaller reducer size L and a larger replication rate r, r stays
// above the Theorem 5.1 bound, and r scales as L^{-1/2} (Example 5.2):
// between consecutive p, the ratio of r is within a factor 2 of
// sqrt(L ratio). A relation the query does not name, living in the same
// database, changes neither r nor L.
func TestMeasuredReplicationShape(t *testing.T) {
	q := query.Triangle()
	for _, c := range []struct {
		m        int
		domain   int64
		dbSeed   int64
		hashSeed uint64
		ps       []int
	}{
		{5000, 1 << 20, 9, 1, []int{8, 64}},
		{4000, 1 << 21, 31, 31, []int{8, 64, 512}},
	} {
		t.Run(fmt.Sprintf("m=%d", c.m), func(t *testing.T) {
			specs := make([]workload.AtomSpec, 3)
			for j, a := range q.Atoms {
				specs[j] = workload.AtomSpec{Name: a.Name, Arity: 2, M: c.m, Domain: c.domain}
			}
			db := workload.ForQuery(specs, c.dbSeed)
			bitsM := make([]float64, 3)
			for j, a := range q.Atoms {
				bitsM[j] = float64(db.MustGet(a.Name).Bits())
			}
			var prevR, prevL float64
			rs, ls := make([]float64, len(c.ps)), make([]int64, len(c.ps))
			for i, p := range c.ps {
				r, maxBits := MeasuredReplication(q, db, p, c.hashSeed)
				rs[i], ls[i] = r, maxBits
				l := float64(maxBits)
				if lb := ReplicationLowerBound(q, bitsM, l); r < lb {
					t.Errorf("p=%d: r = %.2f below the Theorem 5.1 bound %.2f", p, r, lb)
				}
				if i > 0 {
					if r <= prevR || l >= prevL {
						t.Errorf("p=%d: r %.2f → %.2f and L %.0f → %.0f, want r up and L down", p, prevR, r, prevL, l)
					}
					if got, want := r/prevR, math.Sqrt(prevL/l); got < 0.5*want || got > 2*want {
						t.Errorf("p=%d: r ratio %.2f, want within 2× of sqrt(L ratio) %.2f", p, got, want)
					}
				}
				prevR, prevL = r, l
			}
			db.Put(workload.Uniform("T", 2, c.m, c.domain, c.dbSeed+1))
			for i, p := range c.ps {
				if r, maxBits := MeasuredReplication(q, db, p, c.hashSeed); r != rs[i] || maxBits != ls[i] {
					t.Errorf("p=%d: with an unrelated T in the database r = %.2f and L = %d, want %.2f and %d", p, r, maxBits, rs[i], ls[i])
				}
			}
		})
	}
}

func TestReplicationLowerBoundAllFitTrivial(t *testing.T) {
	// When every relation fits in one reducer the only bound is r >= 1.
	q := query.Triangle()
	if got := ReplicationLowerBound(q, []float64{100, 100, 100}, 1000); got != 1 {
		t.Errorf("all-fit bound = %v, want 1", got)
	}
}

// MinReducers returns the Theorem 5.1 consequence p ≥ r·|I|/L on the
// number of reducers, using the replication lower bound.
func MinReducers(q *query.Query, bitsM []float64, l float64) float64 {
	sumM := 0.0
	for _, m := range bitsM {
		sumM += m
	}
	return ReplicationLowerBound(q, bitsM, l) * sumM / l
}
