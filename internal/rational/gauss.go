package rational

import "math/big"

// Solve solves the square linear system A·x = b exactly by Gaussian
// elimination with partial (first-nonzero) pivoting over rationals.
// It returns (x, true) if A is nonsingular, and (nil, false) otherwise.
// A and b are not modified.
func Solve(a *Matrix, b Vector) (Vector, bool) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("rational: Solve requires a square system")
	}
	// Augmented working copy.
	w := NewMatrix(n, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.Set(i, j, a.At(i, j))
		}
		w.Set(i, n, b[i])
	}
	t := new(big.Rat)
	for col := 0; col < n; col++ {
		// Find a pivot row.
		pivot := -1
		for r := col; r < n; r++ {
			if !IsZero(w.At(r, col)) {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, false // singular
		}
		if pivot != col {
			for j := col; j <= n; j++ {
				pv, cv := Clone(w.At(pivot, j)), Clone(w.At(col, j))
				w.Set(pivot, j, cv)
				w.Set(col, j, pv)
			}
		}
		// Normalize the pivot row.
		inv := new(big.Rat).Inv(w.At(col, col))
		for j := col; j <= n; j++ {
			w.Set(col, j, t.Mul(w.At(col, j), inv))
		}
		// Eliminate below and above.
		for r := 0; r < n; r++ {
			if r == col || IsZero(w.At(r, col)) {
				continue
			}
			factor := Clone(w.At(r, col))
			for j := col; j <= n; j++ {
				t.Mul(factor, w.At(col, j))
				w.Set(r, j, new(big.Rat).Sub(w.At(r, j), t))
			}
		}
	}
	x := make(Vector, n)
	for i := 0; i < n; i++ {
		x[i] = Clone(w.At(i, n))
	}
	return x, true
}
