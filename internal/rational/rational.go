// Package rational provides exact linear algebra over arbitrary-precision
// rationals (math/big.Rat). It is the numeric substrate for the fractional
// edge-packing polytope enumeration and the exact simplex solver used to pick
// HyperCube shares: all pivoting decisions are made on exact values, so the
// optimizer is immune to floating-point degeneracy.
package rational

import (
	"fmt"
	"math/big"
	"strings"
)

// Zero returns a new rational equal to 0.
func Zero() *big.Rat { return new(big.Rat) }

// One returns a new rational equal to 1.
func One() *big.Rat { return big.NewRat(1, 1) }

// New returns the rational a/b. It panics if b == 0.
func New(a, b int64) *big.Rat { return big.NewRat(a, b) }

// FromInt returns the rational v/1.
func FromInt(v int64) *big.Rat { return big.NewRat(v, 1) }

// FromFloat converts a float64 losslessly into a rational. Every finite
// float64 has an exact binary-rational representation, so no precision is
// lost; NaN and infinities panic.
func FromFloat(f float64) *big.Rat {
	r := new(big.Rat).SetFloat64(f)
	if r == nil {
		panic(fmt.Sprintf("rational: cannot represent %v", f))
	}
	return r
}

// Clone returns a deep copy of r.
func Clone(r *big.Rat) *big.Rat { return new(big.Rat).Set(r) }

// IsZero reports whether r == 0.
func IsZero(r *big.Rat) bool { return r.Sign() == 0 }

// Vector is a dense vector of rationals. Elements are never nil after
// NewVector; operations allocate fresh big.Rats so vectors may be shared.
type Vector []*big.Rat

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = new(big.Rat)
	}
	return v
}

// VectorFromInts builds a vector from integer entries.
func VectorFromInts(vals ...int64) Vector {
	v := make(Vector, len(vals))
	for i, x := range vals {
		v[i] = big.NewRat(x, 1)
	}
	return v
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	for i, x := range v {
		w[i] = Clone(x)
	}
	return w
}

// Dot returns the inner product of v and w. It panics on length mismatch.
func (v Vector) Dot(w Vector) *big.Rat {
	if len(v) != len(w) {
		panic(fmt.Sprintf("rational: dot length mismatch %d vs %d", len(v), len(w)))
	}
	sum := new(big.Rat)
	t := new(big.Rat)
	for i := range v {
		sum.Add(sum, t.Mul(v[i], w[i]))
	}
	return sum
}

// Equal reports componentwise equality.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i].Cmp(w[i]) != 0 {
			return false
		}
	}
	return true
}

// Dominates reports whether v >= w componentwise.
func (v Vector) Dominates(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i].Cmp(w[i]) < 0 {
			return false
		}
	}
	return true
}

// Floats converts v to float64s (with the usual rounding).
func (v Vector) Floats() []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i], _ = x.Float64()
	}
	return out
}

// String renders the vector as (a, b, c) using RatString forms.
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = x.RatString()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Matrix is a dense rows×cols rational matrix.
type Matrix struct {
	Rows, Cols int
	data       []*big.Rat // row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("rational: negative matrix dimension")
	}
	d := make([]*big.Rat, rows*cols)
	for i := range d {
		d[i] = new(big.Rat)
	}
	return &Matrix{Rows: rows, Cols: cols, data: d}
}

// MatrixFromRows builds a matrix from row vectors, which must have equal
// lengths. The rows are deep-copied.
func MatrixFromRows(rows ...Vector) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("rational: ragged rows")
		}
		for j, x := range r {
			m.Set(i, j, x)
		}
	}
	return m
}

// At returns the element at (i, j). The returned value is owned by the
// matrix; callers must not mutate it.
func (m *Matrix) At(i, j int) *big.Rat { return m.data[i*m.Cols+j] }

// Set stores a copy of v at (i, j).
func (m *Matrix) Set(i, j int, v *big.Rat) { m.data[i*m.Cols+j].Set(v) }

// SetInt stores the integer v at (i, j).
func (m *Matrix) SetInt(i, j int, v int64) { m.data[i*m.Cols+j].SetInt64(v) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	for i, x := range m.data {
		c.data[i].Set(x)
	}
	return c
}

// Row returns a deep copy of row i.
func (m *Matrix) Row(i int) Vector {
	v := make(Vector, m.Cols)
	for j := 0; j < m.Cols; j++ {
		v[j] = Clone(m.At(i, j))
	}
	return v
}

// MulVec returns m·v. It panics if len(v) != m.Cols.
func (m *Matrix) MulVec(v Vector) Vector {
	if len(v) != m.Cols {
		panic("rational: MulVec shape mismatch")
	}
	out := NewVector(m.Rows)
	t := new(big.Rat)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out[i].Add(out[i], t.Mul(m.At(i, j), v[j]))
		}
	}
	return out
}

// String renders the matrix row by row.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString(m.Row(i).String())
		if i != m.Rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
