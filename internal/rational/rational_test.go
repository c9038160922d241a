package rational

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// Sum returns the sum of the entries of v.
func (v Vector) Sum() *big.Rat {
	sum := new(big.Rat)
	for _, x := range v {
		sum.Add(sum, x)
	}
	return sum
}

func TestConstructors(t *testing.T) {
	if Zero().Sign() != 0 {
		t.Error("Zero() not zero")
	}
	if One().Cmp(big.NewRat(1, 1)) != 0 {
		t.Error("One() not one")
	}
	if New(3, 4).Cmp(big.NewRat(3, 4)) != 0 {
		t.Error("New(3,4) wrong")
	}
	if FromInt(-7).Cmp(big.NewRat(-7, 1)) != 0 {
		t.Error("FromInt(-7) wrong")
	}
}

func TestFromFloatLossless(t *testing.T) {
	for _, f := range []float64{0, 1, 0.5, 0.1, 1e-10, 123456.789, -3.25} {
		r := FromFloat(f)
		back, exact := r.Float64()
		if back != f {
			t.Errorf("FromFloat(%v) round-trips to %v", f, back)
		}
		_ = exact
	}
}

func TestFromFloatPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromFloat(NaN) did not panic")
		}
	}()
	nan := 0.0
	nan = nan / nan
	FromFloat(nan)
}

func TestCloneIndependence(t *testing.T) {
	a := New(1, 2)
	b := Clone(a)
	b.Add(b, One())
	if a.Cmp(New(1, 2)) != 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestVectorDot(t *testing.T) {
	v := VectorFromInts(1, 2, 3)
	w := VectorFromInts(4, 5, 6)
	got := v.Dot(w)
	if got.Cmp(FromInt(32)) != 0 {
		t.Errorf("dot = %v, want 32", got)
	}
}

func TestVectorDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot length mismatch did not panic")
		}
	}()
	VectorFromInts(1).Dot(VectorFromInts(1, 2))
}

func TestVectorSum(t *testing.T) {
	v := Vector{New(1, 2), New(1, 3), New(1, 6)}
	if v.Sum().Cmp(One()) != 0 {
		t.Errorf("sum = %v, want 1", v.Sum())
	}
}

func TestVectorEqualAndDominates(t *testing.T) {
	a := VectorFromInts(1, 2, 3)
	b := VectorFromInts(1, 2, 3)
	c := VectorFromInts(1, 2, 4)
	if !a.Equal(b) {
		t.Error("a != b")
	}
	if a.Equal(c) {
		t.Error("a == c")
	}
	if !c.Dominates(a) {
		t.Error("c should dominate a")
	}
	if a.Dominates(c) {
		t.Error("a should not dominate c")
	}
	if a.Equal(VectorFromInts(1, 2)) {
		t.Error("length mismatch should not be equal")
	}
	if a.Dominates(VectorFromInts(1, 2)) {
		t.Error("length mismatch should not dominate")
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	a := VectorFromInts(1, 2)
	b := a.Clone()
	b[0].SetInt64(99)
	if a[0].Cmp(One()) != 0 {
		t.Error("Vector.Clone shares storage")
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{New(1, 2), FromInt(3)}
	if got := v.String(); got != "(1/2, 3)" {
		t.Errorf("String = %q", got)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.SetInt(0, 0, 5)
	m.Set(1, 2, New(7, 2))
	if m.At(0, 0).Cmp(FromInt(5)) != 0 || m.At(1, 2).Cmp(New(7, 2)) != 0 {
		t.Error("Set/At mismatch")
	}
	r := m.Row(1)
	if r[2].Cmp(New(7, 2)) != 0 {
		t.Error("Row copy wrong")
	}
	r[2].SetInt64(0)
	if m.At(1, 2).Cmp(New(7, 2)) != 0 {
		t.Error("Row should return a copy")
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := MatrixFromRows(VectorFromInts(1, 2), VectorFromInts(3, 4))
	v := VectorFromInts(5, 6)
	got := m.MulVec(v)
	want := VectorFromInts(17, 39)
	if !got.Equal(want) {
		t.Errorf("MulVec = %v, want %v", got, want)
	}
}

func TestSolveIdentity(t *testing.T) {
	m := MatrixFromRows(VectorFromInts(1, 0), VectorFromInts(0, 1))
	b := VectorFromInts(3, 4)
	x, ok := Solve(m, b)
	if !ok || !x.Equal(b) {
		t.Errorf("Solve identity failed: %v ok=%v", x, ok)
	}
}

func TestSolve2x2(t *testing.T) {
	// 2x + y = 5 ; x - y = 1  => x = 2, y = 1
	m := MatrixFromRows(VectorFromInts(2, 1), VectorFromInts(1, -1))
	x, ok := Solve(m, VectorFromInts(5, 1))
	if !ok {
		t.Fatal("singular")
	}
	want := VectorFromInts(2, 1)
	if !x.Equal(want) {
		t.Errorf("Solve = %v, want %v", x, want)
	}
}

func TestSolveSingular(t *testing.T) {
	m := MatrixFromRows(VectorFromInts(1, 2), VectorFromInts(2, 4))
	if _, ok := Solve(m, VectorFromInts(1, 2)); ok {
		t.Error("Solve accepted a singular matrix")
	}
}

func TestSolveRequiresPivotSwap(t *testing.T) {
	// First pivot is zero; needs a row swap.
	m := MatrixFromRows(VectorFromInts(0, 1), VectorFromInts(1, 0))
	x, ok := Solve(m, VectorFromInts(7, 9))
	if !ok {
		t.Fatal("singular")
	}
	want := VectorFromInts(9, 7)
	if !x.Equal(want) {
		t.Errorf("Solve = %v, want %v", x, want)
	}
}

func TestSolveRational(t *testing.T) {
	// x/2 + y/3 = 1 ; x/4 - y = 0  => solve exactly.
	m := MatrixFromRows(Vector{New(1, 2), New(1, 3)}, Vector{New(1, 4), FromInt(-1)})
	b := Vector{One(), Zero()}
	x, ok := Solve(m, b)
	if !ok {
		t.Fatal("singular")
	}
	// Verify by substitution.
	got := m.MulVec(x)
	if !got.Equal(b) {
		t.Errorf("residual: m·x = %v, want %v", got, b)
	}
}

func TestRank(t *testing.T) {
	tests := []struct {
		rows []Vector
		want int
	}{
		{[]Vector{VectorFromInts(1, 0), VectorFromInts(0, 1)}, 2},
		{[]Vector{VectorFromInts(1, 2), VectorFromInts(2, 4)}, 1},
		{[]Vector{VectorFromInts(0, 0), VectorFromInts(0, 0)}, 0},
		{[]Vector{VectorFromInts(1, 2, 3), VectorFromInts(4, 5, 6), VectorFromInts(7, 8, 9)}, 2},
	}
	for i, tc := range tests {
		m := MatrixFromRows(tc.rows...)
		if got := Rank(m); got != tc.want {
			t.Errorf("case %d: Rank = %d, want %d", i, got, tc.want)
		}
	}
}

// Property: Solve returns a vector satisfying A·x = b on random nonsingular
// integer systems.
func TestSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.SetInt(i, j, int64(r.Intn(21)-10))
			}
		}
		b := NewVector(n)
		for i := range b {
			b[i].SetInt64(int64(r.Intn(21) - 10))
		}
		x, ok := Solve(m, b)
		if !ok {
			return true // singular draw; nothing to check
		}
		return m.MulVec(x).Equal(b)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Rank is invariant under row scaling.
func TestRankScaleInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		m := NewMatrix(n, n+1)
		for i := 0; i < n; i++ {
			for j := 0; j < n+1; j++ {
				m.SetInt(i, j, int64(r.Intn(7)-3))
			}
		}
		scaled := m.Clone()
		for j := 0; j < scaled.Cols; j++ {
			v := new(big.Rat).Mul(scaled.At(0, j), big.NewRat(3, 2))
			scaled.Set(0, j, v)
		}
		return Rank(m) == Rank(scaled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Rank returns the rank of a, computed by exact row reduction. a is not
// modified.
func Rank(a *Matrix) int {
	w := a.Clone()
	t := new(big.Rat)
	rank := 0
	for col := 0; col < w.Cols && rank < w.Rows; col++ {
		pivot := -1
		for r := rank; r < w.Rows; r++ {
			if !IsZero(w.At(r, col)) {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			continue
		}
		if pivot != rank {
			for j := 0; j < w.Cols; j++ {
				pv, cv := Clone(w.At(pivot, j)), Clone(w.At(rank, j))
				w.Set(pivot, j, cv)
				w.Set(rank, j, pv)
			}
		}
		inv := new(big.Rat).Inv(w.At(rank, col))
		for j := 0; j < w.Cols; j++ {
			w.Set(rank, j, t.Mul(w.At(rank, j), inv))
		}
		for r := 0; r < w.Rows; r++ {
			if r == rank || IsZero(w.At(r, col)) {
				continue
			}
			factor := Clone(w.At(r, col))
			for j := 0; j < w.Cols; j++ {
				t.Mul(factor, w.At(rank, j))
				w.Set(r, j, new(big.Rat).Sub(w.At(r, j), t))
			}
		}
		rank++
	}
	return rank
}
