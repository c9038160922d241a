package data

import (
	"math/rand"
	"slices"
	"testing"
)

// shadowRel is a row-major reference implementation the columnar Relation
// is checked against: same Add order, same values.
type shadowRel struct {
	arity int
	rows  [][]int64
}

// keyAt is the map key of row i, for tests that compare rows as strings.
func keyAt(r *Relation, i int) string { return r.Tuple(i).Key() }

func (s *shadowRel) add(vals ...int64) {
	s.rows = append(s.rows, append([]int64(nil), vals...))
}

// TestColumnarViewsAgree pins the columnar accessors to each other:
// Tuple, ReadTuple, At, Column, keyAt, and Each must present the same
// rows in the same order.
func TestColumnarViewsAgree(t *testing.T) {
	r := NewRelation("S", 3, 100)
	sh := &shadowRel{arity: 3}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		vals := []int64{rng.Int63n(100), rng.Int63n(100), rng.Int63n(100)}
		r.Add(vals...)
		sh.add(vals...)
	}
	if r.Size() != len(sh.rows) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(sh.rows))
	}
	scratch := make(Tuple, r.Arity)
	for i, want := range sh.rows {
		got := r.Tuple(i)
		rt := r.ReadTuple(i, scratch)
		for a := 0; a < r.Arity; a++ {
			if got[a] != want[a] || rt[a] != want[a] ||
				r.At(i, a) != want[a] || r.Column(a)[i] != want[a] {
				t.Fatalf("row %d attr %d: Tuple=%d ReadTuple=%d At=%d Column=%d want %d",
					i, a, got[a], rt[a], r.At(i, a), r.Column(a)[i], want[a])
			}
		}
		if k := keyAt(r, i); k != Tuple(want).Key() {
			t.Fatalf("row %d: keyAt = %v, want %v", i, k, want)
		}
	}
	i := 0
	r.Each(func(row int, tu Tuple) bool {
		if row != i {
			t.Fatalf("Each index %d, want %d", row, i)
		}
		for a := range tu {
			if tu[a] != sh.rows[i][a] {
				t.Fatalf("Each row %d = %v, want %v", i, tu, sh.rows[i])
			}
		}
		i++
		return true
	})
	if i != r.Size() {
		t.Fatalf("Each visited %d rows, want %d", i, r.Size())
	}
}

// TestColumnarRoundTrip checks the Add → Sort → Clone invariants: the
// multiset survives Sort, Clone is deep and bitwise identical, and
// AppendColumns/AppendRow reproduce the source rows.
func TestColumnarRoundTrip(t *testing.T) {
	r := NewRelation("S", 2, 1000)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		r.Add(rng.Int63n(1000), rng.Int63n(1000))
	}
	counts := func(rel *Relation) map[string]int {
		m := make(map[string]int)
		for i := 0; i < rel.Size(); i++ {
			m[keyAt(rel, i)]++
		}
		return m
	}
	before := counts(r)
	c := r.Clone()
	r.Sort()
	after := counts(r)
	if len(before) != len(after) {
		t.Fatal("Sort changed the key set")
	}
	for k, n := range before {
		if after[k] != n {
			t.Fatalf("Sort changed multiplicity of %v: %d → %d", k, n, after[k])
		}
	}
	for i := 1; i < r.Size(); i++ {
		if slices.Compare(r.Tuple(i), r.Tuple(i-1)) < 0 {
			t.Fatalf("Sort: row %d out of order", i)
		}
	}
	// Clone is unsorted (deep copy taken before Sort) and preserves counts.
	cc := counts(c)
	for k, n := range before {
		if cc[k] != n {
			t.Fatal("Clone lost tuples")
		}
	}
	// Rebuild via AppendRow and AppendColumns; both must agree with r.
	viaRow := NewRelation("S", 2, 1000)
	for i := 0; i < r.Size(); i++ {
		viaRow.AppendRow(r, i)
	}
	viaCols := NewRelation("S", 2, 1000)
	viaCols.AppendColumns(r.Columns(), r.Size())
	for i := 0; i < r.Size(); i++ {
		if keyAt(viaRow, i) != keyAt(r, i) || keyAt(viaCols, i) != keyAt(r, i) {
			t.Fatalf("rebuilt row %d differs", i)
		}
	}
}

// TestArityEdgeCases covers arity 0 (nullary relations: rows with no
// attributes) and arity 1.
func TestArityEdgeCases(t *testing.T) {
	r0 := NewRelation("N", 0, 1)
	if r0.Size() != 0 || r0.Bits() != 0 {
		t.Fatalf("empty nullary: Size=%d Bits=%d", r0.Size(), r0.Bits())
	}
	r0.Add()
	if r0.Size() != 1 {
		t.Fatalf("nullary Size = %d, want 1", r0.Size())
	}
	if tu := r0.Tuple(0); len(tu) != 0 {
		t.Fatalf("nullary Tuple = %v", tu)
	}
	if r0.ContainsDuplicates() {
		t.Fatal("one nullary row is not a duplicate")
	}
	r0.Add()
	if !r0.ContainsDuplicates() {
		t.Fatal("two nullary rows are duplicates")
	}
	r0.Sort()
	c0 := r0.Clone()
	if c0.Size() != 2 {
		t.Fatalf("nullary Clone Size = %d", c0.Size())
	}

	r1 := NewRelation("U", 1, 10)
	r1.Add(5)
	r1.Add(3)
	r1.Sort()
	if r1.At(0, 0) != 3 || r1.At(1, 0) != 5 {
		t.Fatalf("unary Sort: %v %v", r1.Tuple(0), r1.Tuple(1))
	}
	if got := r1.Column(0); len(got) != 2 || got[0] != 3 {
		t.Fatalf("unary Column = %v", got)
	}
}

// FuzzRowColumnarAgreement drives the columnar Relation and a row-major
// shadow with the same operation stream decoded from fuzz bytes, then
// requires every view (Tuple, At, Each, keyAt, Sort order) to agree.
func FuzzRowColumnarAgreement(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, arityByte uint8) {
		arity := int(arityByte % 4) // 0..3
		const domain = 256
		r := NewRelation("F", arity, domain)
		sh := &shadowRel{arity: arity}
		if arity > 0 {
			for i := 0; i+arity <= len(raw); i += arity {
				vals := make([]int64, arity)
				for a := 0; a < arity; a++ {
					vals[a] = int64(raw[i+a])
				}
				r.Add(vals...)
				sh.add(vals...)
			}
		} else {
			for range raw {
				r.Add()
				sh.rows = append(sh.rows, nil)
			}
		}
		if r.Size() != len(sh.rows) {
			t.Fatalf("Size = %d, want %d", r.Size(), len(sh.rows))
		}
		check := func() {
			for i, want := range sh.rows {
				got := r.Tuple(i)
				for a := 0; a < arity; a++ {
					if got[a] != want[a] || r.At(i, a) != want[a] {
						t.Fatalf("row %d: %v vs %v", i, got, want)
					}
				}
				if keyAt(r, i) != Tuple(want).Key() {
					t.Fatalf("row %d: key mismatch", i)
				}
			}
		}
		check()
		// Sort both and compare again (shadow sorts lexicographically).
		r.Sort()
		rows := sh.rows
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0; j-- {
				if slices.Compare(rows[j], rows[j-1]) < 0 {
					rows[j], rows[j-1] = rows[j-1], rows[j]
				} else {
					break
				}
			}
		}
		check()
		if r.ContainsDuplicates() != shadowHasDup(rows) {
			t.Fatal("ContainsDuplicates disagrees with shadow")
		}
	})
}

func shadowHasDup(rows [][]int64) bool {
	seen := make(map[string]bool)
	for _, row := range rows {
		k := Tuple(row).Key()
		if seen[k] {
			return true
		}
		seen[k] = true
	}
	return false
}

// TestAdoptColumns: the relation takes the caller's slices as its storage
// (no copy), clamps each to the row count so that columns cut from one
// buffer cannot grow into each other, and refuses a relation that already
// holds rows or maintains serving state.
func TestAdoptColumns(t *testing.T) {
	flat := []int64{1, 2, 3, 10, 20, 30, 0, 0}
	cols := [][]int64{flat[0:3], flat[3:6]}
	r := NewRelation("A", 2, 1000)
	r.AdoptColumns(cols, 3)
	if r.Size() != 3 || r.At(2, 0) != 3 || r.At(0, 1) != 10 {
		t.Fatalf("adopted relation reads wrong: size %d", r.Size())
	}
	if &r.Column(0)[0] != &flat[0] || &r.Column(1)[0] != &flat[3] {
		t.Error("AdoptColumns copied the columns")
	}
	r.Add(4, 40) // must reallocate column 0, not overwrite column 1's first value
	if flat[3] != 10 || r.At(3, 0) != 4 || r.At(0, 1) != 10 {
		t.Errorf("append after adoption clobbered a neighbouring column: flat = %v", flat)
	}
	short := NewRelation("B", 2, 1000)
	short.AdoptColumns([][]int64{{1, 2, 3}, {4, 5, 6}}, 2)
	if short.Size() != 2 || len(short.Column(1)) != 2 {
		t.Errorf("count below the slice length: size %d", short.Size())
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("arity mismatch", func() { NewRelation("C", 2, 10).AdoptColumns([][]int64{{1}}, 1) })
	mustPanic("non-empty", func() { r.AdoptColumns([][]int64{{1}, {2}}, 1) })
	tracked := NewRelation("D", 1, 10)
	tracked.ContentSum() // enables maintenance
	mustPanic("tracked", func() { tracked.AdoptColumns([][]int64{{1}}, 1) })
}
