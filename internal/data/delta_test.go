package data

import (
	"fmt"
	"math/rand"
	"testing"
)

// contentSumScan recomputes the content fold the slow way.
func contentSumScan(r *Relation) uint64 {
	var sum uint64
	for i := 0; i < r.Size(); i++ {
		sum += r.rowHash(i)
	}
	return sum
}

func testDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	r := NewRelation("S1", 2, 100)
	r.Add(1, 2)
	r.Add(3, 4)
	r.Add(5, 4)
	db.Put(r)
	s := NewRelation("S2", 1, 100)
	s.Add(9)
	db.Put(s)
	return db
}

func TestApplyInsertDelete(t *testing.T) {
	db := testDB(t)
	d := new(Delta).Insert("S1", 7, 8).Delete("S1", 1, 2).Insert("S2", 3)
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if err := db.Apply(d); err != nil {
		t.Fatal(err)
	}
	s1 := db.MustGet("S1")
	if s1.Size() != 3 {
		t.Fatalf("S1 size = %d, want 3", s1.Size())
	}
	seen := map[string]bool{}
	for i := 0; i < s1.Size(); i++ {
		seen[keyAt(s1, i)] = true
	}
	if seen[Tuple{1, 2}.Key()] || !seen[Tuple{7, 8}.Key()] {
		t.Fatalf("wrong tuples after apply: %v", seen)
	}
	if db.MustGet("S2").Size() != 2 {
		t.Fatal("S2 insert missing")
	}
	// Deltas may delete what they inserted (order matters).
	if err := db.Apply(new(Delta).Insert("S2", 44).Delete("S2", 44)); err != nil {
		t.Fatal(err)
	}
	if db.MustGet("S2").Size() != 2 {
		t.Fatal("insert-then-delete should net to zero")
	}
}

func TestApplyAtomicity(t *testing.T) {
	db := testDB(t)
	before := db.MustGet("S1").Size()
	cases := []*Delta{
		new(Delta).Insert("S1", 50, 51).Insert("nope", 1),    // unknown relation
		new(Delta).Insert("S1", 50, 51).Insert("S1", 1),      // arity
		new(Delta).Insert("S1", 50, 51).Insert("S1", 100, 0), // domain
		new(Delta).Insert("S1", 50, 51).Insert("S1", 1, 2),   // duplicate
		new(Delta).Insert("S1", 50, 51).Delete("S1", 90, 90), // absent delete
		new(Delta).Insert("S1", 50, 51).Insert("S1", 50, 51), // dup within delta
		new(Delta).Delete("S1", 3, 4).Delete("S1", 3, 4),     // double delete
		new(Delta).Insert("S1", 60, 61).Delete("S1", 60, 61).Delete("S1", 60, 61),
	}
	for i, d := range cases {
		if err := db.Apply(d); err == nil {
			t.Errorf("case %d: Apply succeeded, want error", i)
		}
		if got := db.MustGet("S1").Size(); got != before {
			t.Fatalf("case %d: size %d after failed Apply, want %d (not atomic)", i, got, before)
		}
	}
	// The failed applies must not have corrupted maintained state.
	s1 := db.MustGet("S1")
	if got, want := s1.ContentSum(), contentSumScan(s1); got != want {
		t.Fatalf("content sum %d, want %d", got, want)
	}
}

// TestDeltaCopiesScratchTuples: building a delta from a reused scratch
// buffer (the ReadTuple idiom) must not alias earlier operations.
func TestDeltaCopiesScratchTuples(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("R", 2, 100)
	r.Add(1, 2)
	r.Add(3, 4)
	r.Add(5, 6)
	db.Put(r)
	d := new(Delta)
	buf := make(Tuple, 2)
	for i := 0; i < 3; i++ {
		r.ReadTuple(i, buf)
		d.Delete("R", buf...)
	}
	if err := db.Apply(d); err != nil {
		t.Fatalf("scratch-built delta failed: %v", err)
	}
	if r.Size() != 0 {
		t.Fatalf("%d tuples left, want 0", r.Size())
	}
}

func TestApplyEmptyAndNil(t *testing.T) {
	db := testDB(t)
	if err := db.Apply(nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Apply(new(Delta)); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRejectsDuplicateRelation(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("R", 1, 10)
	r.Add(1)
	r.Add(1) // generators never do this; Apply must refuse to index it
	db.Put(r)
	if err := db.Apply(new(Delta).Insert("R", 2)); err == nil {
		t.Fatal("Apply on a relation with duplicates should error")
	}
	// A duplicate appended after Apply began maintaining the relation is
	// refused the same way by the next Apply.
	s := NewRelation("S", 1, 10)
	s.Add(1)
	db.Put(s)
	if err := db.Apply(new(Delta).Insert("S", 2)); err != nil {
		t.Fatal(err)
	}
	s.Add(2)
	if err := db.Apply(new(Delta).Insert("S", 3)); err == nil {
		t.Fatal("Apply after a duplicate append should error")
	}
}

// TestApplyMaintainedState drives random delta sequences and checks every
// piece of maintained state against a from-scratch recomputation.
func TestApplyMaintainedState(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := NewDatabase()
	const domain = 40
	r := NewRelation("R", 2, domain)
	live := map[[2]int64]bool{}
	for i := 0; i < 60; i++ {
		a, b := rng.Int63n(domain), rng.Int63n(domain)
		k := [2]int64{a, b}
		if live[k] {
			continue
		}
		live[k] = true
		r.Add(a, b)
	}
	db.Put(r)

	for step := 0; step < 200; step++ {
		d := new(Delta)
		nOps := 1 + rng.Intn(6)
		pending := map[[2]int64]bool{} // membership after the ops queued so far
		for k := range live {
			pending[k] = true
		}
		for o := 0; o < nOps; o++ {
			if rng.Intn(2) == 0 && len(pending) > 0 {
				// delete a random live tuple
				for k, present := range pending {
					if !present {
						continue
					}
					d.Delete("R", k[0], k[1])
					pending[k] = false
					break
				}
			} else {
				a, b := rng.Int63n(domain), rng.Int63n(domain)
				k := [2]int64{a, b}
				if pending[k] {
					continue
				}
				d.Insert("R", a, b)
				pending[k] = true
			}
		}
		if err := db.Apply(d); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		live = map[[2]int64]bool{}
		for i := 0; i < r.Size(); i++ {
			live[[2]int64{r.At(i, 0), r.At(i, 1)}] = true
		}

		// Content sum == fresh scan.
		if got, want := r.ContentSum(), contentSumScan(r); got != want {
			t.Fatalf("step %d: content sum %d, want %d", step, got, want)
		}
		// Index maps every live tuple to its row.
		if r.index.Len() != r.Size() {
			t.Fatalf("step %d: index size %d, rows %d", step, r.index.Len(), r.Size())
		}
		for i := 0; i < r.Size(); i++ {
			if got := r.index.Lookup(r.Tuple(i)); got != i {
				t.Fatalf("step %d: index[%v] = %d, want %d", step, r.Tuple(i), got, i)
			}
		}
	}
}

func TestContentSumMaintainedAcrossMutators(t *testing.T) {
	r := NewRelation("R", 2, 1000)
	r.Add(1, 2)
	r.Add(3, 4)
	sum := r.ContentSum() // enables maintenance
	if sum != contentSumScan(r) {
		t.Fatal("initial sum wrong")
	}
	r.Add(5, 6)
	other := NewRelation("X", 2, 1000)
	other.Add(9, 9)
	r.AppendRow(other, 0)
	r.AppendColumns([][]int64{{10, 11}, {12, 13}}, 2)
	if got, want := r.ContentSum(), contentSumScan(r); got != want {
		t.Fatalf("sum %d after mutators, want %d", got, want)
	}
	r.Sort()
	if got, want := r.ContentSum(), contentSumScan(r); got != want {
		t.Fatalf("sum %d after Sort, want %d", got, want)
	}
}

func TestDatabaseID(t *testing.T) {
	a, b := NewDatabase(), NewDatabase()
	if a.ID() == 0 || b.ID() == 0 {
		t.Fatal("IDs must be nonzero")
	}
	if a.ID() != a.ID() {
		t.Fatal("ID not stable")
	}
	if a.ID() == b.ID() {
		t.Fatal("IDs must be unique")
	}
}

func ExampleDatabase_Apply() {
	db := NewDatabase()
	r := NewRelation("S", 2, 100)
	r.Add(1, 2)
	db.Put(r)
	err := db.Apply(new(Delta).Insert("S", 3, 4).Delete("S", 1, 2))
	fmt.Println(err, db.MustGet("S").Size())
	// Output: <nil> 1
}

// BenchmarkApplyAfterSnapshot gives the snapshot copy-on-write its number:
// each op is a two-op Apply (delete one tuple, insert another), with a
// Snapshot before every one (read=each: a reader between any two writes)
// or never (read=none: an Apply stream no reader looks at, as Apply then
// StandingQuery.Advance runs it). A Snapshot publishes an epoch that
// shares the relation's columns, so under read=each every delete copies
// all of them first (Relation.unshare) and B/op grows with the relation
// while the delta stays two ops. Apply publishes nothing, so under
// read=none only the first delete copies and the op is O(delta).
func BenchmarkApplyAfterSnapshot(b *testing.B) {
	for _, read := range []bool{true, false} {
		for _, rows := range []int{2000, 200000} {
			name := fmt.Sprintf("read=none/rows=%d", rows)
			if read {
				name = fmt.Sprintf("read=each/rows=%d", rows)
			}
			b.Run(name, func(b *testing.B) {
				db := NewDatabase()
				r := NewRelation("R", 2, int64(rows)+1)
				for i := 0; i < rows; i++ {
					r.Add(int64(i), int64(i))
				}
				db.Put(r)
				db.Snapshot() // a seed or an Exec read the relation once
				n := int64(rows)
				swap := []*Delta{
					new(Delta).Delete("R", 0, 0).Insert("R", n, n),
					new(Delta).Delete("R", n, n).Insert("R", 0, 0),
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if read {
						db.Snapshot()
					}
					if err := db.Apply(swap[i%2]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
