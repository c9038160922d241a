package packing

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/lp"
	"repro/internal/query"
	"repro/internal/rational"
)

// Vertices returns all vertices of the packing polytope of q, in
// lexicographic order, copied out of the shape memo.
func Vertices(q *query.Query) []rational.Vector {
	return cloneAll(vertices(q))
}

// memoQueries is the catalog plus seeded random queries.
func memoQueries() []*query.Query {
	var qs []*query.Query
	for _, name := range query.CatalogNames() {
		qs = append(qs, query.Catalog()[name])
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		qs = append(qs, query.Random(rng, 4, 4))
	}
	return qs
}

// varSets returns every subset of q's variables, the empty one included.
func varSets(q *query.Query) []query.VarSet {
	var out []query.VarSet
	for mask := 0; mask < 1<<q.NumVars(); mask++ {
		x := query.NewVarSet()
		for i := 0; i < q.NumVars(); i++ {
			if mask&(1<<i) != 0 {
				x[i] = true
			}
		}
		out = append(out, x)
	}
	return out
}

func equalVectors(a, b []rational.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// emptyMemo swaps in an empty memo for the rest of the test.
func emptyMemo(t *testing.T) {
	memo.Lock()
	saved := memo.shapes
	memo.shapes = make(map[string][]rational.Vector)
	memo.Unlock()
	t.Cleanup(func() {
		memo.Lock()
		memo.shapes = saved
		memo.Unlock()
	})
}

// TestMemoMatchesDirectEnumeration holds the memoized PK,
// SaturatingPackings and cover vertices, on a miss and on a hit, to the
// vertices enumerated directly from the polytope.
func TestMemoMatchesDirectEnumeration(t *testing.T) {
	for _, q := range memoQueries() {
		wantPK := NonDominated(lp.EnumerateVertices(Polytope(q)))
		wantCover := lp.EnumerateVertices(coverPolytope(q))
		for round := 0; round < 2; round++ {
			if got := PK(q); !equalVectors(got, wantPK) {
				t.Fatalf("%v, call %d: PK = %v, direct %v", q, round, got, wantPK)
			}
			if got := memoized(q, true); !equalVectors(got, wantCover) {
				t.Fatalf("%v, call %d: cover vertices = %v, direct %v", q, round, got, wantCover)
			}
		}
		for _, x := range varSets(q) {
			res, _ := q.Residual(x)
			var want []rational.Vector
			for _, u := range lp.EnumerateVertices(Polytope(res)) {
				if Saturates(q, u, x) {
					want = append(want, u)
				}
			}
			for round := 0; round < 2; round++ {
				if got := SaturatingPackings(q, x); !equalVectors(got, want) {
					t.Fatalf("%v, x=%v, call %d: SaturatingPackings = %v, direct %v", q, x.Sorted(), round, got, want)
				}
			}
		}
	}
}

// TestMemoHandsOutCopies writes into every vector each exported function
// returns and checks that the next call is unchanged.
func TestMemoHandsOutCopies(t *testing.T) {
	q := query.Triangle()
	x := query.NewVarSet(0)
	calls := map[string]func() []rational.Vector{
		"Vertices":           func() []rational.Vector { return Vertices(q) },
		"PK":                 func() []rational.Vector { return PK(q) },
		"SaturatingPackings": func() []rational.Vector { return SaturatingPackings(q, x) },
		"MaxPacking": func() []rational.Vector {
			u, _ := MaxPacking(q)
			return []rational.Vector{u}
		},
		"MinCover": func() []rational.Vector {
			w, _ := MinCover(q)
			return []rational.Vector{w}
		},
	}
	agm := AGMBound(q, []float64{8, 8, 8})
	for name, call := range calls {
		want := cloneAll(call())
		for _, v := range call() {
			for _, c := range v {
				c.SetInt64(7)
			}
		}
		if got := call(); !equalVectors(got, want) {
			t.Errorf("%s: after writing into a result, the next call returns %v, want %v", name, got, want)
		}
	}
	if got := AGMBound(q, []float64{8, 8, 8}); got != agm {
		t.Errorf("AGMBound after writing into every result = %v, want %v", got, agm)
	}
}

// TestMemoStopsAtCap fills an empty memo past maxShapes: it stops growing
// at the cap, and shapes past it are still answered exactly.
func TestMemoStopsAtCap(t *testing.T) {
	emptyMemo(t)

	// One atom over a permutation of seven variables: 5,040 distinct
	// shapes with two vertices each.
	const k = 7
	vars := make([]string, k)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
	}
	perm := []int{0, 1, 2, 3, 4, 5, 6}
	shapes := 0
	var permute func(n int)
	permute = func(n int) {
		if n == 1 {
			q := &query.Query{Name: "perm", Vars: vars, Atoms: []query.Atom{{Name: "R", Vars: append([]int(nil), perm...)}}}
			if vs := Vertices(q); len(vs) != 2 {
				t.Fatalf("shape %d: %d vertices, want 2", shapes, len(vs))
			}
			shapes++
			return
		}
		for i := 0; i < n; i++ {
			permute(n - 1)
			if n%2 == 0 {
				perm[i], perm[n-1] = perm[n-1], perm[i]
			} else {
				perm[0], perm[n-1] = perm[n-1], perm[0]
			}
		}
	}
	permute(k)
	if shapes <= maxShapes {
		t.Fatalf("only %d shapes generated, want more than %d", shapes, maxShapes)
	}
	memo.Lock()
	n := len(memo.shapes)
	memo.Unlock()
	if n != maxShapes {
		t.Errorf("memo holds %d shapes after %d distinct ones, want the cap %d", n, shapes, maxShapes)
	}
	if got, want := PK(query.Triangle()), NonDominated(lp.EnumerateVertices(Polytope(query.Triangle()))); !equalVectors(got, want) {
		t.Errorf("PK(C3) past the cap = %v, want %v", got, want)
	}
}

// TestMemoConcurrentCallers runs the memo's readers and writers at once
// (the race detector's half of the check) and holds every answer to the
// serial one.
func TestMemoConcurrentCallers(t *testing.T) {
	qs := memoQueries()
	want := make([][]rational.Vector, len(qs))
	wantAGM := make([]float64, len(qs))
	for i, q := range qs {
		want[i] = NonDominated(lp.EnumerateVertices(Polytope(q)))
		wantAGM[i] = agmBoundLP(q, agmCards(q))
	}
	emptyMemo(t) // every shape starts as a miss
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(qs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				if got := PK(q); !equalVectors(got, want[i]) {
					errs <- fmt.Sprintf("%v: PK = %v, want %v", q, got, want[i])
				}
				if got := AGMBound(q, agmCards(q)); math.Abs(got-wantAGM[i]) > 1e-9*wantAGM[i] {
					errs <- fmt.Sprintf("%v: AGMBound = %v, want %v", q, got, wantAGM[i])
				}
				for _, x := range varSets(q) {
					SaturatingPackings(q, x)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// agmCards gives atom j of q the cardinality 2^(j+3), so no two atoms tie.
func agmCards(q *query.Query) []float64 {
	m := make([]float64, q.NumAtoms())
	for j := range m {
		m[j] = math.Exp2(float64(j + 3))
	}
	return m
}
