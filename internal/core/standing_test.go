package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/workload"
)

// standingOracle recomputes the query from scratch — the ground truth a
// standing query's materialized result must equal after every advance.
func standingOracle(q *query.Query, db *data.Database) []data.Tuple {
	return join.Join(q, join.FromDatabase(db))
}

// applyDelta folds a ResultDelta into a key→tuple view of the previous
// result, failing the test on inconsistent transitions (removing an
// absent answer, adding a present one).
func applyDelta(t *testing.T, view map[string]data.Tuple, rd ResultDelta) {
	t.Helper()
	for _, tu := range rd.Removed {
		k := tu.Key()
		if _, ok := view[k]; !ok {
			t.Fatalf("delta removed %v which was not in the result", tu)
		}
		delete(view, k)
	}
	for _, tu := range rd.Added {
		k := tu.Key()
		if _, ok := view[k]; ok {
			t.Fatalf("delta added %v which was already in the result", tu)
		}
		view[k] = tu
	}
}

func viewEquals(view map[string]data.Tuple, want []data.Tuple) bool {
	if len(view) != len(want) {
		return false
	}
	for _, tu := range want {
		if _, ok := view[tu.Key()]; !ok {
			return false
		}
	}
	return true
}

// TestStandingDifferentialRandomDeltas drives random delta sequences —
// inserts of fresh tuples, deletes and re-inserts of existing ones,
// rejected duplicate inserts and absent deletes, and traffic on an
// unrelated relation — through a standing query under each forced
// single-round strategy, checking after every step that (a) the
// materialized result equals a from-scratch join oracle as a set, (b) the
// emitted ResultDeltas compose to exactly that result, and (c) no step
// fell back to a reseed.
func TestStandingDifferentialRandomDeltas(t *testing.T) {
	const domain = int64(1 << 20)
	for _, tc := range []struct {
		name     string
		strategy Strategy
	}{
		{"hypercube", HyperCube},
		{"skew-join", SkewJoin},
		{"bin-combination", BinCombination},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := query.Join2()
			db := data.NewDatabase()
			// Zipf data has genuine heavy hitters at plan time, so the
			// skew-aware routers exercise their grids; deltas below touch
			// both heavy and light values.
			db.Put(workload.Zipf("S1", 400, domain, 1, 1.6, 60, 11))
			db.Put(workload.Zipf("S2", 400, domain, 1, 1.6, 60, 12))
			db.Put(workload.Uniform("F", 2, 100, domain, 13))

			e, err := New(Config{P: 16, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			forced := tc.strategy
			h, err := e.Standing(context.Background(), q, db, ExecOptions{Strategy: &forced})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			view := make(map[string]data.Tuple)
			for _, tu := range h.Result() {
				view[tu.Key()] = tu
			}
			if want := standingOracle(q, db); !viewEquals(view, want) {
				t.Fatalf("seed result has %d answers, oracle %d", len(view), len(want))
			}

			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			rels := []string{"S1", "S2", "F"}
			next := domain / 2 // fresh values, disjoint from generated data's range use
			for step := 0; step < 60; step++ {
				d := new(data.Delta)
				ops := 1 + rng.Intn(4)
				for i := 0; i < ops; i++ {
					rel := rels[rng.Intn(len(rels))]
					r := db.Relations[rel]
					switch rng.Intn(4) {
					case 0: // insert a fresh tuple
						d.Insert(rel, next%domain, int64(rng.Intn(1000)))
						next++
					case 1: // delete an existing tuple (then maybe re-insert later)
						if r.Size() > 0 {
							row := rng.Intn(r.Size())
							d.Delete(rel, r.Tuple(row)...)
						}
					case 2: // delete + re-insert the same tuple inside one delta
						if r.Size() > 0 {
							row := rng.Intn(r.Size())
							tu := append([]int64(nil), r.Tuple(row)...)
							d.Delete(rel, tu...)
							d.Insert(rel, tu...)
						}
					case 3: // insert two fresh tuples sharing a join value
						z := int64(2000 + rng.Intn(50))
						d.Insert("S1", next%domain, z)
						next++
						d.Insert("S2", next%domain, z)
						next++
					}
				}
				if err := db.Apply(d); err != nil {
					t.Fatalf("step %d: apply: %v", step, err)
				}
				// Rejected deltas must not reach the standing query: a
				// duplicate insert errors and leaves no capture behind.
				if r := db.Relations["S1"]; r.Size() > 0 {
					bad := new(data.Delta).Insert("S1", r.Tuple(0)...)
					if err := db.Apply(bad); err == nil {
						t.Fatalf("step %d: duplicate insert unexpectedly applied", step)
					}
				}
				rd, err := h.Advance(context.Background())
				if err != nil {
					t.Fatalf("step %d: advance: %v", step, err)
				}
				applyDelta(t, view, rd)
				want := standingOracle(q, db)
				if !viewEquals(view, want) {
					t.Fatalf("step %d: composed deltas diverge from oracle (%d vs %d answers)",
						step, len(view), len(want))
				}
				if got := h.Result(); !join.EqualTupleSets(got, want) {
					t.Fatalf("step %d: result has %d answers, oracle %d", step, len(got), len(want))
				}
			}
			st := h.Stats()
			if st.Reseeds != 0 {
				t.Errorf("incremental advances reseeded %d times", st.Reseeds)
			}
			if st.Advances == 0 || st.AppliedOps == 0 {
				t.Errorf("stats did not record work: %+v", st)
			}
			if st.RoutedTuples <= 0 {
				t.Errorf("no delta tuples routed: %+v", st)
			}
		})
	}
}

// TestStandingHandsOutCallerOwnedRows pins the two ownership promises of a
// standing query: Result is a snapshot that later advances never change,
// and ResultDelta rows belong to the caller, so writing into them changes
// nothing the handle reports later. The advances in between retire other
// answers and add new ones, which moves rows of the counted output and
// reuses the places they left.
func TestStandingHandsOutCallerOwnedRows(t *testing.T) {
	q := query.Join2()
	db := data.NewDatabase()
	s1, s2 := data.NewRelation("S1", 2, 1<<20), data.NewRelation("S2", 2, 1<<20)
	for z := int64(0); z < 40; z++ {
		s1.Add(z, z)
		s2.Add(1000+z, z)
	}
	db.Put(s1)
	db.Put(s2)
	e, err := New(Config{P: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Standing(context.Background(), q, db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	deepCopy := func(ts []data.Tuple) []data.Tuple {
		out := make([]data.Tuple, len(ts))
		for i, tu := range ts {
			out[i] = append(data.Tuple(nil), tu...)
		}
		return out
	}
	same := func(a, b []data.Tuple) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				return false
			}
		}
		return true
	}
	advance := func(d *data.Delta) ResultDelta {
		t.Helper()
		if err := db.Apply(d); err != nil {
			t.Fatal(err)
		}
		rd, err := h.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rd
	}

	result := h.Result()
	keptResult := deepCopy(result)
	added := advance(new(data.Delta).Insert("S1", 500, 500).Insert("S2", 600, 500))
	if len(added.Added) != 1 {
		t.Fatalf("insert pair added %d answers, want 1", len(added.Added))
	}
	keptAdded := deepCopy(added.Added)
	retire := new(data.Delta)
	for z := int64(0); z < 10; z++ {
		retire.Delete("S1", z, z)
	}
	removed := advance(retire)
	if len(removed.Removed) != 10 {
		t.Fatalf("deletes retired %d answers, want 10", len(removed.Removed))
	}
	keptRemoved := deepCopy(removed.Removed)
	grow := new(data.Delta)
	for z := int64(700); z < 720; z++ {
		grow.Insert("S1", z, z).Insert("S2", z+1, z)
	}
	advance(grow)

	if !same(result, keptResult) || !same(added.Added, keptAdded) || !same(removed.Removed, keptRemoved) {
		t.Fatal("a later advance changed rows the handle had already handed out")
	}
	for _, tu := range added.Added {
		for i := range tu {
			tu[i] = -7
		}
	}
	want := standingOracle(q, db)
	if got := h.Result(); !join.EqualTupleSets(got, want) {
		t.Fatalf("after writing into a delta row, Result has %d answers, oracle %d", len(got), len(want))
	}
}

// TestStandingNewHeavyHitterReseeds grows one join value past the plan's
// m/p threshold: the standing query must reseed exactly once (replanning
// against the new statistics) and keep matching the oracle through it.
func TestStandingNewHeavyHitterReseeds(t *testing.T) {
	q := query.Join2()
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, 320, 1<<20, 1))
	db.Put(workload.Matching("S2", 2, 320, 1<<20, 2))
	e, err := New(Config{P: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Standing(context.Background(), q, db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Below threshold (320/16 = 20): stays incremental.
	d := new(data.Delta)
	for i := int64(0); i < 10; i++ {
		d.Insert("S1", 1<<19+i, 777)
	}
	if err := db.Apply(d); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Reseeds != 0 {
		t.Fatalf("sub-threshold delta reseeded: %+v", st)
	}

	// Cross the threshold: one reseed for the whole batch.
	d = new(data.Delta)
	for i := int64(0); i < 15; i++ {
		d.Insert("S1", 1<<19+100+i, 777)
		d.Insert("S2", 1<<19+200+i, 777)
	}
	if err := db.Apply(d); err != nil {
		t.Fatal(err)
	}
	rd, err := h.Advance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Reseeds != 1 {
		t.Fatalf("reseeds = %d, want exactly 1", st.Reseeds)
	}
	want := standingOracle(q, db)
	if got := h.Result(); !join.EqualTupleSets(got, want) {
		t.Fatalf("post-reseed result has %d answers, oracle %d", len(got), len(want))
	}
	if len(rd.Added) == 0 {
		t.Error("reseed delta reported no added answers for a batch of matching inserts")
	}

	// Follow-up light traffic is incremental again against the new plan.
	d = new(data.Delta).Insert("S1", 12345, 999).Insert("S2", 54321, 999)
	if err := db.Apply(d); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Reseeds != 1 {
		t.Fatalf("light follow-up reseeded again: %+v", st)
	}
	if got := h.Result(); !join.EqualTupleSets(got, standingOracle(q, db)) {
		t.Fatal("post-reseed incremental advance diverged from oracle")
	}
}

// TestStandingClearPlanCacheReseeds checks the invalidation registry:
// dropping the plan cache flags live handles, whose next Advance rebuilds
// resident state (exactly once) without changing the result.
func TestStandingClearPlanCacheReseeds(t *testing.T) {
	q := query.Join2()
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, 200, 1<<20, 1))
	db.Put(workload.Matching("S2", 2, 200, 1<<20, 2))
	e, err := New(Config{P: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Standing(context.Background(), q, db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	before := h.Result()

	e.ClearPlanCache()
	rd, err := h.Advance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Added) != 0 || len(rd.Removed) != 0 {
		t.Errorf("reseed on unchanged content reported a non-empty delta (%d added, %d removed)",
			len(rd.Added), len(rd.Removed))
	}
	if st := h.Stats(); st.Reseeds != 1 {
		t.Fatalf("reseeds = %d, want 1", st.Reseeds)
	}
	if got := h.Result(); !join.EqualTupleSets(got, before) {
		t.Fatal("reseed changed the result on unchanged content")
	}
	// Quiet advance after the reseed is a no-op.
	if _, err := h.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Reseeds != 1 {
		t.Fatalf("quiet advance reseeded: %+v", st)
	}
}

// TestStandingMultiRoundFallback forces the multi-round strategy: the
// handle must serve correct results by full re-execution per advance, each
// advance one reseed through the ordinary reseed path — off the still-valid
// cached plan (no miss, no replan) and with no heavy watch, which nothing
// on that path would consult. Each seed looks its plan up once: opening
// costs one miss and no hit, and every advance exactly one hit.
func TestStandingMultiRoundFallback(t *testing.T) {
	q := query.Path(3)
	db := data.NewDatabase()
	for i, name := range q.AtomNames() {
		db.Put(workload.Uniform(name, 2, 200, 50, int64(i+1)))
	}
	e, err := New(Config{P: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	forced := MultiRound
	h, err := e.Standing(context.Background(), q, db, ExecOptions{Strategy: &forced})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.watch != nil {
		t.Error("multi-round handle built a heavy watch")
	}
	if cs := e.CacheStats(); cs.Misses != 1 || cs.Hits != 0 {
		t.Fatalf("opening the handle: %d misses, %d hits; want 1 and 0", cs.Misses, cs.Hits)
	}

	view := make(map[string]data.Tuple)
	for _, tu := range h.Result() {
		view[tu.Key()] = tu
	}
	for step := 0; step < 5; step++ {
		rel := q.AtomNames()[step%len(q.AtomNames())]
		d := new(data.Delta).Insert(rel, int64(step), int64(step+1))
		if err := db.Apply(d); err != nil {
			t.Fatal(err)
		}
		rd, err := h.Advance(context.Background())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		applyDelta(t, view, rd)
		want := standingOracle(q, db)
		if !viewEquals(view, want) {
			t.Fatalf("step %d: fallback deltas diverge from oracle", step)
		}
		if got := h.Result(); !join.EqualTupleSets(got, want) {
			t.Fatalf("step %d: fallback result diverges from oracle", step)
		}
		if st := h.Stats(); st.Reseeds != uint64(step+1) {
			t.Fatalf("step %d: %d reseeds after %d advances", step, st.Reseeds, step+1)
		}
		if cs := e.CacheStats(); cs.Misses != 1 || cs.Hits != uint64(step+1) || cs.Replans != 0 {
			t.Fatalf("step %d: after %d advances the cache reads %+v; want 1 miss, %d hits, no replan", step, step+1, cs, step+1)
		}
	}
}

// TestStandingClose checks teardown: a closed handle errors on Advance,
// stops capturing deltas, and Close is idempotent.
func TestStandingClose(t *testing.T) {
	q := query.Join2()
	db := data.NewDatabase()
	db.Put(workload.Matching("S1", 2, 100, 1<<20, 1))
	db.Put(workload.Matching("S2", 2, 100, 1<<20, 2))
	e, err := New(Config{P: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Standing(context.Background(), q, db, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	h.Close()
	if _, err := h.Advance(context.Background()); err == nil {
		t.Error("advance on closed handle did not error")
	}
	if err := db.Apply(new(data.Delta).Insert("S1", 42, 42)); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Pending != 0 {
		t.Errorf("closed handle captured %d deltas", st.Pending)
	}
}

// TestApplyAdvanceStreamFlatInDatabaseSize: after the seed (which reads an
// epoch and so freezes every row), a stream of two-op Apply + Advance steps
// allocates the same few bytes per step at 2,000 and at 200,000 tuples per
// relation.
// Apply publishes no epoch and the incremental Advance reads none, so only
// the stream's first delete copies the frozen columns.
func TestApplyAdvanceStreamFlatInDatabaseSize(t *testing.T) {
	bytesPerStep := func(m int) uint64 {
		const domain = 1 << 20
		q := query.Join2()
		db := data.NewDatabase()
		s1 := workload.Matching("S1", 2, m, domain, 1)
		s2 := workload.Matching("S2", 2, m, domain, 2)
		// Two S1 tuples that join nothing, so every step's answers are the
		// same at both sizes: fresh x values and a z absent from both.
		used := make(map[int64]bool, 4*m)
		for _, col := range [][]int64{s1.Column(0), s1.Column(1), s2.Column(1)} {
			for _, v := range col {
				used[v] = true
			}
		}
		var fresh []int64
		for v := int64(domain - 1); len(fresh) < 3; v-- {
			if !used[v] {
				fresh = append(fresh, v)
			}
		}
		x0, x1, z := fresh[0], fresh[1], fresh[2]
		s1.Add(x0, z)
		db.Put(s1)
		db.Put(s2)
		e, err := New(Config{P: 16, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.Standing(context.Background(), q, db, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		swap := []*data.Delta{
			new(data.Delta).Delete("S1", x0, z).Insert("S1", x1, z),
			new(data.Delta).Delete("S1", x1, z).Insert("S1", x0, z),
		}
		step := func(i int) {
			if err := db.Apply(swap[i%2]); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Advance(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		step(0) // the one copy: the seed froze the row this delete moves
		step(1)
		const steps = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			step(i)
		}
		runtime.ReadMemStats(&after)
		if st := h.Stats(); st.Reseeds != 0 {
			t.Fatalf("m=%d: %d reseeds, want the incremental path only", m, st.Reseeds)
		}
		return (after.TotalAlloc - before.TotalAlloc) / steps
	}
	// TotalAlloc is process-wide, so a stray runtime allocation can land in
	// either window; one column copy at 200k tuples is 1.6 MB.
	small, large := bytesPerStep(2000), bytesPerStep(200000)
	t.Logf("bytes per step: %d at 2k tuples per relation, %d at 200k", small, large)
	if large > small+1024 {
		t.Errorf("a two-op Apply + Advance allocates %d B at 2k tuples per relation, %d B at 200k", small, large)
	}
}
