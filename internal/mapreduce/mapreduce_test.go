package mapreduce

import (
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

func TestMeasuredReplicationShape(t *testing.T) {
	// More reducers → smaller max load, larger replication; the measured
	// r should grow roughly like sqrt(p) for the triangle (r = p^{1/3}·...
	// shape check: r increases with p and max load decreases).
	q := query.Triangle()
	specs := []workload.AtomSpec{
		{Name: "S1", Arity: 2, M: 5000, Domain: 1 << 20},
		{Name: "S2", Arity: 2, M: 5000, Domain: 1 << 20},
		{Name: "S3", Arity: 2, M: 5000, Domain: 1 << 20},
	}
	db := workload.ForQuery(specs, 9)
	r8, load8 := MeasuredReplication(q, db, 8, 1)
	r64, load64 := MeasuredReplication(q, db, 64, 1)
	if r64 <= r8 {
		t.Errorf("replication should grow with p: r8=%v r64=%v", r8, r64)
	}
	if load64 >= load8 {
		t.Errorf("max load should shrink with p: %d vs %d", load8, load64)
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
