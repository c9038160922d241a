package join

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/workload"
)

func relOf(name string, arity int, domain int64, rows ...[]int64) *data.Relation {
	r := data.NewRelation(name, arity, domain)
	for _, row := range rows {
		r.Add(row...)
	}
	return r
}

func TestJoinTwoRelations(t *testing.T) {
	// q(x,y,z) = S1(x,z), S2(y,z)
	q := query.Join2()
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 5}, []int64{2, 6}),
		"S2": relOf("S2", 2, 10, []int64{3, 5}, []int64{4, 5}, []int64{7, 9}),
	}
	out := SortTuples(Join(q, rels))
	// z=5 joins (1) with (3),(4): outputs (1,3,5),(1,4,5).
	want := []data.Tuple{{1, 3, 5}, {1, 4, 5}}
	if !EqualTupleSets(out, want) {
		t.Errorf("Join = %v, want %v", out, want)
	}
}

func TestJoinTriangle(t *testing.T) {
	q := query.Triangle()
	// Edges forming triangle (1,2,3) plus noise.
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 2}, []int64{4, 5}),
		"S2": relOf("S2", 2, 10, []int64{2, 3}, []int64{5, 6}),
		"S3": relOf("S3", 2, 10, []int64{3, 1}, []int64{6, 7}),
	}
	out := Join(q, rels)
	want := []data.Tuple{{1, 2, 3}}
	if !EqualTupleSets(out, want) {
		t.Errorf("Join = %v, want %v", out, want)
	}
}

func TestJoinCartesian(t *testing.T) {
	q := query.Cartesian(2)
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 1, 10, []int64{1}, []int64{2}),
		"S2": relOf("S2", 1, 10, []int64{8}, []int64{9}),
	}
	out := Join(q, rels)
	if len(out) != 4 {
		t.Errorf("cartesian size = %d, want 4", len(out))
	}
}

func TestJoinEmptyRelation(t *testing.T) {
	q := query.Join2()
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 5}),
		"S2": relOf("S2", 2, 10),
	}
	if out := Join(q, rels); len(out) != 0 {
		t.Errorf("Join with empty relation = %v", out)
	}
}

func TestJoinMissingRelation(t *testing.T) {
	q := query.Join2()
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 5}),
	}
	if out := Join(q, rels); len(out) != 0 {
		t.Errorf("Join with missing relation = %v", out)
	}
	if out := NestedLoop(q, rels); len(out) != 0 {
		t.Errorf("NestedLoop with missing relation = %v", out)
	}
}

func TestJoinNoMatches(t *testing.T) {
	q := query.Join2()
	rels := map[string]*data.Relation{
		"S1": relOf("S1", 2, 10, []int64{1, 5}),
		"S2": relOf("S2", 2, 10, []int64{2, 6}),
	}
	if out := Join(q, rels); len(out) != 0 {
		t.Errorf("Join = %v, want empty", out)
	}
}

func TestJoinSingleAtomIdentity(t *testing.T) {
	q := query.MustParse("q(x,y) = R(x,y)")
	r := relOf("R", 2, 10, []int64{1, 2}, []int64{3, 4})
	out := SortTuples(Join(q, map[string]*data.Relation{"R": r}))
	want := []data.Tuple{{1, 2}, {3, 4}}
	if !EqualTupleSets(out, want) {
		t.Errorf("Join = %v", out)
	}
}

func TestJoinAgainstNestedLoopRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range query.CatalogNames() {
		q := query.Catalog()[name]
		for trial := 0; trial < 6; trial++ {
			rels := randomInstance(rng, q, trial, 12)
			fast := Join(q, rels)
			slow := NestedLoop(q, rels)
			if !EqualTupleSets(fast, slow) {
				t.Errorf("%s trial %d: hash join and nested loop disagree (%d vs %d tuples)",
					name, trial, len(fast), len(slow))
			}
		}
	}
}

// randomInstance draws one duplicate-free relation of about m tuples per
// atom of q, cycling through the generators by kind: uniform, zipf (binary
// atoms only), matching. Domains are small so that keys repeat and joins
// match.
func randomInstance(rng *rand.Rand, q *query.Query, kind, m int) map[string]*data.Relation {
	rels := make(map[string]*data.Relation)
	for _, a := range q.Atoms {
		seed := rng.Int63()
		size := m/2 + rng.Intn(m)
		switch {
		case kind%3 == 1 && a.Arity() == 2:
			rels[a.Name] = workload.Zipf(a.Name, size, int64(2*m), rng.Intn(2), 1.3, 6, seed)
		case kind%3 == 2:
			rels[a.Name] = workload.Matching(a.Name, a.Arity(), size, int64(2*m), seed)
		default:
			// Uniform wants size ≤ domain^arity / 2, and size < 3m/2.
			domain := int64(4 * m)
			if a.Arity() > 1 {
				domain = int64(m)/2 + 2
			}
			rels[a.Name] = workload.Uniform(a.Name, a.Arity(), size, domain, seed)
		}
	}
	return rels
}

// referenceJoinLimit is the map-based join this package ran before the
// GroupIndex kernel, kept verbatim as the order oracle: it shares neither
// the index nor the arena with JoinLimit.
func referenceJoinLimit(q *query.Query, rels map[string]*data.Relation, limit int) []data.Tuple {
	k := q.NumVars()
	order := planOrder(q, rels)

	// bindings holds partial assignments to the k query variables; bound
	// tracks which variables are assigned (same for every binding at a
	// given step).
	bindings := []data.Tuple{make(data.Tuple, k)}
	bound := make([]bool, k)

	for _, j := range order {
		atom := q.Atoms[j]
		rel := rels[atom.Name]
		if rel == nil || rel.Size() == 0 {
			return nil
		}
		// Split atom variables into already-bound (join positions) and new.
		var joinPos []int // positions within the atom
		var joinVar []int // corresponding query variables
		for pos, v := range atom.Vars {
			if bound[v] {
				joinPos = append(joinPos, pos)
				joinVar = append(joinVar, v)
			}
		}
		// Build the hash index from the key columns only — the payload
		// columns are not touched until a binding actually extends.
		m := rel.Size()
		keyCols := make([][]int64, len(joinPos))
		for a, pos := range joinPos {
			keyCols[a] = rel.Column(pos)
		}
		index := make(map[string][]int, m)
		key := make(data.Tuple, len(joinPos))
		for i := 0; i < m; i++ {
			for a, col := range keyCols {
				key[a] = col[i]
			}
			ks := key.Key()
			index[ks] = append(index[ks], i)
		}
		cols := rel.Columns()
		var next []data.Tuple
		probe := make(data.Tuple, len(joinVar))
	extend:
		for _, b := range bindings {
			for a, v := range joinVar {
				probe[a] = b[v]
			}
			for _, ti := range index[probe.Key()] {
				nb := append(data.Tuple(nil), b...)
				for pos, v := range atom.Vars {
					nb[v] = cols[pos][ti]
				}
				next = append(next, nb)
				if limit > 0 && len(next) >= limit {
					break extend
				}
			}
		}
		bindings = next
		if len(bindings) == 0 {
			return nil
		}
		for _, v := range atom.Vars {
			bound[v] = true
		}
	}
	return bindings
}

// sameSequence reports whether two answer lists are equal tuple by tuple,
// in order (nil and empty are the same list).
func sameSequence(a, b []data.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y data.Tuple) bool { return slices.Equal(x, y) })
}

// TestJoinMatchesReferenceOrder pins the kernel to the exact tuple
// sequence of the map-based join it replaced — not just the multiset:
// Result.Output, every example's printed output and the Eq. 12 summation
// order all read answers in this order.
func TestJoinMatchesReferenceOrder(t *testing.T) {
	check := func(t *testing.T, name string, q *query.Query, rels map[string]*data.Relation) {
		t.Helper()
		full := len(referenceJoinLimit(q, rels, 0))
		for _, limit := range []int{0, 1, full/2 + 1} {
			got, want := JoinLimit(q, rels, limit), referenceJoinLimit(q, rels, limit)
			if !sameSequence(got, want) {
				t.Errorf("%s limit %d: %d answers, reference has %d (or the order differs)",
					name, limit, len(got), len(want))
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	answers := 0
	for _, name := range query.CatalogNames() {
		q := query.Catalog()[name]
		for trial := 0; trial < 9; trial++ {
			rels := randomInstance(rng, q, trial, 24)
			answers += len(referenceJoinLimit(q, rels, 0))
			check(t, name, q, rels)

			// One relation empty, then missing.
			victim := q.Atoms[trial%q.NumAtoms()]
			full := rels[victim.Name]
			rels[victim.Name] = data.NewRelation(victim.Name, victim.Arity(), full.Domain)
			check(t, name+" (empty "+victim.Name+")", q, rels)
			delete(rels, victim.Name)
			check(t, name+" (missing "+victim.Name+")", q, rels)
		}
	}
	if answers == 0 {
		t.Fatal("no instance produced an answer: the comparison is vacuous")
	}

	// A nine-column key; binary values make keys repeat.
	wide := query.MustParse("q(a,b,c,d,e,f,g,h,i,z) = R(a,b,c,d,e,f,g,h,i), S(a,b,c,d,e,f,g,h,i,z)")
	r := data.NewRelation("R", 9, 2)
	s := data.NewRelation("S", 10, 50)
	seenR := map[string]bool{}
	row := make(data.Tuple, 10)
	for i := 0; i < 60; i++ {
		for c := 0; c < 9; c++ {
			row[c] = int64(rng.Intn(2))
		}
		// Vary only two columns most of the time so that keys collide.
		if i%3 != 0 {
			for c := 2; c < 9; c++ {
				row[c] = 1
			}
		}
		if k := row[:9].Key(); !seenR[k] {
			seenR[k] = true
			r.Add(row[:9]...)
		}
		row[9] = int64(i % 50)
		s.Add(row...)
	}
	wideRels := map[string]*data.Relation{"R": r, "S": s}
	if len(Join(wide, wideRels)) < s.Size()/2 {
		t.Fatalf("wide-key instance joins only %d of %d rows", len(Join(wide, wideRels)), s.Size())
	}
	check(t, "wide key", wide, wideRels)
}

// TestJoinMatchesReferenceOrderLongRuns pins the sequence where the fill
// pass does its work: bindings that each match a long run of rows. Beside
// the full join it checks every limit one before, on and one after each of
// the first 20 run boundaries of the step with the long runs, so a clip
// lands inside a run, at its end and just past it.
func TestJoinMatchesReferenceOrderLongRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A triangle through one heavy vertex 1, linked to 60 others both ways
	// in every relation, beside sparse noise among the others.
	tri := make(map[string]*data.Relation)
	for _, name := range []string{"S1", "S2", "S3"} {
		r := data.NewRelation(name, 2, 100)
		var seen data.KeyTable
		seen.Reset(2)
		add := func(a, b int64) {
			if _, added := seen.Insert([]int64{a, b}); added {
				r.Add(a, b)
			}
		}
		for v := int64(2); v < 62; v++ {
			add(1, v)
			add(v, 1)
		}
		for i := 0; i < 120; i++ {
			add(int64(2+rng.Intn(60)), int64(2+rng.Intn(60)))
		}
		tri[name] = r
	}
	cases := []struct {
		name   string
		q      *query.Query
		rels   map[string]*data.Relation
		step   int // the step (index into planOrder) whose runs are long
		minRun int
	}{
		// zipf(1.5) over 20 join values: the heaviest value holds over 100
		// rows on each side.
		{"zipf join2", query.Join2(), map[string]*data.Relation{
			"S1": workload.Zipf("S1", 400, 1<<16, 1, 1.5, 20, 1),
			"S2": workload.Zipf("S2", 400, 1<<16, 1, 1.5, 20, 2),
		}, 1, 100},
		// The second step matches every binding ending at the heavy vertex
		// with its 60 partners; the last step closes the cycle row by row.
		{"heavy-vertex triangle", query.Triangle(), tri, 1, 60},
		// The middle atom is the smallest, so planOrder starts there and x1
		// and x4 stay unbound through the first step (x4 through the second).
		{"chain from the middle", query.Path(3), map[string]*data.Relation{
			"S1": workload.Zipf("S1", 300, 1<<16, 1, 1.5, 10, 3),
			"S2": workload.Uniform("S2", 2, 30, 10, 4),
			"S3": workload.Zipf("S3", 300, 1<<16, 0, 1.5, 10, 5),
		}, 2, 50},
	}
	if order := planOrder(cases[2].q, cases[2].rels); order[0] != 1 {
		t.Fatalf("chain starts at atom %d, not the middle one", order[0])
	}
	for _, c := range cases {
		ends := runEnds(c.q, c.rels, c.step)
		longest := ends[0]
		for i := 1; i < len(ends); i++ {
			longest = max(longest, ends[i]-ends[i-1])
		}
		if longest < c.minRun || len(ends) < 20 {
			t.Fatalf("%s: %d runs, longest %d: want 20 runs, one of %d rows or more",
				c.name, len(ends), longest, c.minRun)
		}
		if n := len(referenceJoinLimit(c.q, c.rels, 0)); c.step == c.q.NumAtoms()-1 && ends[len(ends)-1] != n {
			t.Fatalf("%s: the last step's runs hold %d answers, the join %d", c.name, ends[len(ends)-1], n)
		}
		limits := []int{0}
		for _, e := range ends[:20] {
			limits = append(limits, e-1, e, e+1)
		}
		for _, limit := range limits {
			got, want := JoinLimit(c.q, c.rels, limit), referenceJoinLimit(c.q, c.rels, limit)
			if !sameSequence(got, want) {
				t.Errorf("%s limit %d: %d answers, reference has %d (or the order differs)",
					c.name, limit, len(got), len(want))
			}
		}
	}
}

// runEnds returns the binding counts at which the match runs of step s
// (an index into planOrder) end, with no limit. It extends bindings by
// plain row-by-row matching, sharing nothing with Rows or the reference.
func runEnds(q *query.Query, rels map[string]*data.Relation, s int) []int {
	bindings := []data.Tuple{make(data.Tuple, q.NumVars())}
	bound := make([]bool, q.NumVars())
	var ends []int
	for _, j := range planOrder(q, rels)[:s+1] {
		atom := q.Atoms[j]
		var next []data.Tuple
		ends = ends[:0]
		for _, b := range bindings {
			rels[atom.Name].Each(func(_ int, row data.Tuple) bool {
				nb := slices.Clone(b)
				for pos, v := range atom.Vars {
					if bound[v] && b[v] != row[pos] {
						return true
					}
					nb[v] = row[pos]
				}
				next = append(next, nb)
				return true
			})
			if len(next) > 0 && (len(ends) == 0 || ends[len(ends)-1] < len(next)) {
				ends = append(ends, len(next))
			}
		}
		bindings = next
		for _, v := range atom.Vars {
			bound[v] = true
		}
	}
	return ends
}

// FuzzJoinRowsMatchesReference checks the kernel against the reference
// join, in order, on a random catalog query over a small instance drawn
// from a skewed value pool, so that match runs repeat, under a random
// limit (0 is unlimited).
func FuzzJoinRowsMatchesReference(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0))
	f.Add(uint8(2), int64(7), uint8(5))
	f.Add(uint8(4), int64(3), uint8(40))
	f.Fuzz(func(t *testing.T, pick uint8, seed int64, limit uint8) {
		names := query.CatalogNames()
		q := query.Catalog()[names[int(pick)%len(names)]]
		rng := rand.New(rand.NewSource(seed))
		rels := make(map[string]*data.Relation)
		for _, a := range q.Atoms {
			r := data.NewRelation(a.Name, a.Arity(), 8)
			var seen data.KeyTable
			seen.Reset(a.Arity())
			row := make([]int64, a.Arity())
			for i := rng.Intn(48); i > 0; i-- {
				for c := range row {
					row[c] = int64(rng.Intn(1 + rng.Intn(8))) // small values are common
				}
				if _, added := seen.Insert(row); added {
					r.Add(row...)
				}
			}
			rels[a.Name] = r
		}
		got, want := Rows(q, rels, int(limit)).AppendTuples(nil), referenceJoinLimit(q, rels, int(limit))
		if !sameSequence(got, want) {
			t.Fatalf("%s limit %d: %d answers, reference has %d (or the order differs)",
				q.Name, limit, len(got), len(want))
		}
	})
}

// TestJoinAnswersAliasOneArena pins the aliasing contract of the answers:
// they share a backing array, but every header is capped to its own values
// and the arena belongs to one call.
func TestJoinAnswersAliasOneArena(t *testing.T) {
	q := query.Triangle()
	db := workload.ForQuery([]workload.AtomSpec{
		{Name: "S1", Arity: 2, M: 120, Domain: 16},
		{Name: "S2", Arity: 2, M: 110, Domain: 16},
		{Name: "S3", Arity: 2, M: 100, Domain: 16},
	}, 9)
	rels := FromDatabase(db)
	before := make(map[string]*data.Relation)
	for name, r := range rels {
		before[name] = r.Clone()
	}
	out := Join(q, rels)
	if len(out) < 2 {
		t.Fatalf("need at least two answers, got %d", len(out))
	}
	want := make([]data.Tuple, len(out))
	for i, tu := range out {
		want[i] = slices.Clone(tu)
	}
	other := Join(q, rels)

	// Appending to an answer must reallocate, never run into its neighbour.
	for i := range out {
		if cap(out[i]) != len(out[i]) {
			t.Fatalf("answer %d: cap %d > len %d exposes the next answer", i, cap(out[i]), len(out[i]))
		}
		_ = append(out[i], -1)
	}
	if !sameSequence(out, want) {
		t.Fatal("append to one answer overwrote another")
	}
	// Writing into answers touches no input relation and no other call.
	for _, tu := range out {
		for v := range tu {
			tu[v] = -7
		}
	}
	if !sameSequence(other, want) {
		t.Error("mutating one call's answers changed another call's output")
	}
	for name, r := range rels {
		for a := 0; a < r.Arity; a++ {
			if !slices.Equal(r.Column(a), before[name].Column(a)) {
				t.Errorf("mutating answers changed input relation %s", name)
			}
		}
	}
	// Dedup compacts headers in place over arena answers.
	doubled := append(slices.Clone(other), other...)
	if got := Dedup(doubled); !sameSequence(got, want) {
		t.Errorf("Dedup over arena answers kept %d of %d", len(got), len(want))
	}
}

// TestRowsPooledScratchConcurrent runs Rows from several goroutines at
// once, each on its own instance, and has each overwrite every value of
// every arena it gets back before its next call: a returned arena must be
// the caller's alone — never scratch a later call reuses, never read by
// one — and scratch must never be shared by calls in flight. The queries
// are a single atom (its first step is also its last), a 3-atom chain that
// starts in the middle, and a triangle, each under limit cut-offs.
func TestRowsPooledScratchConcurrent(t *testing.T) {
	type instance struct {
		name   string
		q      *query.Query
		rels   map[string]*data.Relation
		limits []int
		want   [][]data.Tuple // referenceJoinLimit per limit
	}
	tri := workload.ForQuery([]workload.AtomSpec{
		{Name: "S1", Arity: 2, M: 120, Domain: 16},
		{Name: "S2", Arity: 2, M: 110, Domain: 16},
		{Name: "S3", Arity: 2, M: 100, Domain: 16},
	}, 9)
	instances := []*instance{
		{name: "single atom", q: query.MustParse("q(x,y) = R(x,y)"),
			rels: map[string]*data.Relation{"R": workload.Uniform("R", 2, 150, 40, 1)}},
		{name: "chain from the middle", q: query.Path(3), rels: map[string]*data.Relation{
			"S1": workload.Zipf("S1", 300, 1<<16, 1, 1.5, 10, 3),
			"S2": workload.Uniform("S2", 2, 30, 10, 4),
			"S3": workload.Zipf("S3", 300, 1<<16, 0, 1.5, 10, 5),
		}},
		{name: "triangle", q: query.Triangle(), rels: FromDatabase(tri)},
	}
	if order := planOrder(instances[1].q, instances[1].rels); order[0] != 1 {
		t.Fatalf("chain starts at atom %d, not the middle one", order[0])
	}
	for _, in := range instances {
		full := len(referenceJoinLimit(in.q, in.rels, 0))
		if full < 10 {
			t.Fatalf("%s: %d answers, want a few", in.name, full)
		}
		in.limits = []int{0, 1, full / 3, full - 1}
		for _, limit := range in.limits {
			in.want = append(in.want, referenceJoinLimit(in.q, in.rels, limit))
		}
	}
	const workers, calls = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(in *instance) {
			defer wg.Done()
			var prev []int64 // the previous call's arena, overwritten with -1
			for c := 0; c < calls; c++ {
				li := c % len(in.limits)
				got := Rows(in.q, in.rels, in.limits[li])
				if !sameSequence(got.AppendTuples(nil), in.want[li]) {
					t.Errorf("%s limit %d, call %d: answers differ from the reference", in.name, in.limits[li], c)
					return
				}
				for _, v := range prev {
					if v != -1 {
						t.Errorf("%s call %d: a later call wrote into an earlier call's answers", in.name, c)
						return
					}
				}
				prev = got.Vals[:got.N*got.K]
				for i := range prev {
					prev[i] = -1
				}
			}
		}(instances[w%len(instances)])
	}
	wg.Wait()
}

// TestWarmRowsAllocatesOnlyItsAnswers: with the scratch pool warm, one
// Rows call on a triangle allocates exactly once, the arena it returns.
func TestWarmRowsAllocatesOnlyItsAnswers(t *testing.T) {
	if !poolKeepsPuts() {
		t.Skip("sync.Pool drops Puts in this build (race detector)")
	}
	q := query.Triangle()
	rels := FromDatabase(workload.ForQuery([]workload.AtomSpec{
		{Name: "S1", Arity: 2, M: 300, Domain: 40},
		{Name: "S2", Arity: 2, M: 300, Domain: 40},
		{Name: "S3", Arity: 2, M: 300, Domain: 40},
	}, 4))
	if n := Rows(q, rels, 0).N; n == 0 {
		t.Fatal("instance has no triangles")
	}
	if n := testing.AllocsPerRun(100, func() { Rows(q, rels, 0) }); n != 1 {
		t.Errorf("warm Rows allocates %v times per call, want 1 (the answers)", n)
	}
}

// poolKeepsPuts reports whether a sync.Pool hands back what was just put
// into it. Under the race detector Put drops a quarter of its items at
// random, and no pin on what a warm pool saves can hold.
func poolKeepsPuts() bool {
	var p sync.Pool
	for range 64 {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}

func TestJoinProducesNoDuplicates(t *testing.T) {
	q := query.Triangle()
	db := workload.ForQuery([]workload.AtomSpec{
		{Name: "S1", Arity: 2, M: 200, Domain: 20},
		{Name: "S2", Arity: 2, M: 180, Domain: 20},
		{Name: "S3", Arity: 2, M: 150, Domain: 20},
	}, 3)
	out := Join(q, FromDatabase(db))
	if len(Dedup(append([]data.Tuple(nil), out...))) != len(out) {
		t.Error("Join produced duplicate outputs on duplicate-free input")
	}
}

func TestPlanOrderStartsConnected(t *testing.T) {
	// For a path query, the plan should never insert a cross product: each
	// subsequent atom must share a variable with the bound set.
	q := query.Path(4)
	rels := make(map[string]*data.Relation)
	for _, a := range q.Atoms {
		rels[a.Name] = relOf(a.Name, 2, 10, []int64{1, 2})
	}
	order := planOrder(q, rels)
	bound := map[int]bool{}
	for step, j := range order {
		if step > 0 {
			shared := false
			for _, v := range q.Atoms[j].Vars {
				if bound[v] {
					shared = true
				}
			}
			if !shared {
				t.Errorf("step %d atom %d shares no variable with prefix", step, j)
			}
		}
		for _, v := range q.Atoms[j].Vars {
			bound[v] = true
		}
	}
}

func TestJoinLimitTruncates(t *testing.T) {
	// Cartesian 10×10 = 100 answers; limit 7 returns exactly 7 of them.
	q := query.Cartesian(2)
	r1 := data.NewRelation("S1", 1, 100)
	r2 := data.NewRelation("S2", 1, 100)
	for i := int64(0); i < 10; i++ {
		r1.Add(i)
		r2.Add(i + 50)
	}
	rels := map[string]*data.Relation{"S1": r1, "S2": r2}
	got := JoinLimit(q, rels, 7)
	if len(got) != 7 {
		t.Fatalf("JoinLimit = %d tuples, want 7", len(got))
	}
	// Every returned tuple must be a genuine answer.
	full := Join(q, rels)
	set := map[string]bool{}
	for _, tu := range full {
		set[tu.Key()] = true
	}
	for _, tu := range got {
		if !set[tu.Key()] {
			t.Errorf("JoinLimit fabricated tuple %v", tu)
		}
	}
}

func TestJoinLimitZeroMeansUnlimited(t *testing.T) {
	q := query.Cartesian(2)
	r1 := data.NewRelation("S1", 1, 100)
	r2 := data.NewRelation("S2", 1, 100)
	for i := int64(0); i < 5; i++ {
		r1.Add(i)
		r2.Add(i)
	}
	rels := map[string]*data.Relation{"S1": r1, "S2": r2}
	if got := JoinLimit(q, rels, 0); len(got) != 25 {
		t.Errorf("unlimited JoinLimit = %d, want 25", len(got))
	}
}

func TestSortTuples(t *testing.T) {
	ts := []data.Tuple{{2, 1}, {1, 9}, {1, 2}}
	SortTuples(ts)
	if ts[0].Key() != "1,2" || ts[1].Key() != "1,9" || ts[2].Key() != "2,1" {
		t.Errorf("SortTuples = %v", ts)
	}
}

func TestEqualTupleSets(t *testing.T) {
	a := []data.Tuple{{1, 2}, {3, 4}}
	b := []data.Tuple{{3, 4}, {1, 2}}
	if !EqualTupleSets(a, b) {
		t.Error("order should not matter")
	}
	if EqualTupleSets(a, a[:1]) {
		t.Error("length mismatch accepted")
	}
	c := []data.Tuple{{1, 2}, {1, 2}}
	if EqualTupleSets(a, c) {
		t.Error("multiset counts must match")
	}
	if !EqualTupleSets(nil, []data.Tuple{}) {
		t.Error("empty collections differ")
	}
	// Width 0 compares counts alone; width 9 is a wide key.
	if !EqualTupleSets([]data.Tuple{{}, {}}, []data.Tuple{{}, {}}) || EqualTupleSets([]data.Tuple{{}}, []data.Tuple{{1}}) {
		t.Error("width 0 misjudged")
	}
	w1, w2 := data.Tuple{1, 2, 3, 4, 5, 6, 7, 8, 9}, data.Tuple{1, 2, 3, 4, 5, 6, 7, 8, 0}
	if !EqualTupleSets([]data.Tuple{w1, w2, w1}, []data.Tuple{w1, w1, w2}) || EqualTupleSets([]data.Tuple{w1, w2}, []data.Tuple{w1, w1}) {
		t.Error("width 9 misjudged")
	}
}

func TestDedup(t *testing.T) {
	ts := []data.Tuple{{1}, {2}, {1}, {3}, {2}}
	got := Dedup(ts)
	if len(got) != 3 || got[0][0] != 1 || got[1][0] != 2 || got[2][0] != 3 {
		t.Errorf("Dedup = %v", got)
	}
	if got := Dedup([]data.Tuple{}); got == nil || len(got) != 0 {
		t.Errorf("Dedup(empty) = %#v, want the input", got)
	}
	if got := Dedup([]data.Tuple{{}, {}, {}}); len(got) != 1 {
		t.Errorf("Dedup at width 0 kept %d", len(got))
	}
	w1, w2 := data.Tuple{1, 2, 3, 4, 5, 6, 7, 8, 9}, data.Tuple{1, 2, 3, 4, 5, 6, 7, 8, 0}
	if got := Dedup([]data.Tuple{w2, w1, w2, w1}); !sameSequence(got, []data.Tuple{w2, w1}) {
		t.Errorf("Dedup at width 9 = %v", got)
	}
}

// Property: joining a relation with itself's copy under a two-atom chain
// yields exactly the composable pairs.
func TestJoinChainCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := query.Path(2) // S1(x1,x2), S2(x2,x3)
		r1 := data.NewRelation("S1", 2, 5)
		r2 := data.NewRelation("S2", 2, 5)
		seen1 := map[string]bool{}
		seen2 := map[string]bool{}
		for i := 0; i < 10; i++ {
			t1 := data.Tuple{int64(rng.Intn(5)), int64(rng.Intn(5))}
			if !seen1[t1.Key()] {
				seen1[t1.Key()] = true
				r1.Add(t1...)
			}
			t2 := data.Tuple{int64(rng.Intn(5)), int64(rng.Intn(5))}
			if !seen2[t2.Key()] {
				seen2[t2.Key()] = true
				r2.Add(t2...)
			}
		}
		rels := map[string]*data.Relation{"S1": r1, "S2": r2}
		// Count matches directly.
		want := 0
		r1.Each(func(_ int, a data.Tuple) bool {
			r2.Each(func(_ int, b data.Tuple) bool {
				if a[1] == b[0] {
					want++
				}
				return true
			})
			return true
		})
		return len(Join(q, rels)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// SortTuples orders tuples lexicographically in place and returns them.
func SortTuples(ts []data.Tuple) []data.Tuple {
	sort.Slice(ts, func(a, b int) bool {
		ta, tb := ts[a], ts[b]
		for i := range ta {
			if ta[i] != tb[i] {
				return ta[i] < tb[i]
			}
		}
		return false
	})
	return ts
}

// planOrder is Rows' atom order, on a fresh scratch.
func planOrder(q *query.Query, rels map[string]*data.Relation) []int {
	return new(Scratch).planOrder(q, rels)
}

// JoinLimit is Rows with one header per answer.
func JoinLimit(q *query.Query, rels map[string]*data.Relation, limit int) []data.Tuple {
	return Rows(q, rels, limit).AppendTuples(nil)
}
