package data

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
)

// sortedTuples renders r's tuples as a canonical sorted slice for multiset
// comparison across layout changes.
func sortedTuples(r *Relation) [][]int64 {
	out := make([][]int64, r.Size())
	for i := range out {
		t := make([]int64, r.Arity)
		for a := 0; a < r.Arity; a++ {
			t[a] = r.At(i, a)
		}
		out[i] = t
	}
	sort.Slice(out, func(i, j int) bool {
		for a := range out[i] {
			if out[i][a] != out[j][a] {
				return out[i][a] < out[j][a]
			}
		}
		return false
	})
	return out
}

func tuplesEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkLayout asserts the structural invariants of a heavy-partition index
// against the relation it was built on.
func checkLayout(t *testing.T, r *Relation, idx *PartitionIndex) {
	t.Helper()
	if idx == nil {
		t.Fatal("nil partition index")
	}
	col := r.Column(idx.Attr)
	heavy := make(map[int64]bool, len(idx.Spans))
	for _, sp := range idx.Spans {
		heavy[sp.Value] = true
	}
	for i := 0; i < idx.LightEnd; i++ {
		if heavy[col[i]] {
			t.Fatalf("row %d: heavy value %d in light region [0,%d)", i, col[i], idx.LightEnd)
		}
	}
	pos := idx.LightEnd
	for _, sp := range idx.Spans {
		if sp.Start != pos {
			t.Fatalf("span for %d starts at %d, want %d (spans must tile [LightEnd,Rows))", sp.Value, sp.Start, pos)
		}
		if sp.End <= sp.Start {
			t.Fatalf("empty span for %d: [%d,%d)", sp.Value, sp.Start, sp.End)
		}
		for i := sp.Start; i < sp.End; i++ {
			if col[i] != sp.Value {
				t.Fatalf("row %d: value %d inside run for %d", i, col[i], sp.Value)
			}
		}
		got, ok := idx.Span(sp.Value)
		if !ok || got != sp {
			t.Fatalf("Span(%d) = %v, %v", sp.Value, got, ok)
		}
		pos = sp.End
	}
	if pos != idx.Rows {
		t.Fatalf("spans end at %d, index covers %d rows", pos, idx.Rows)
	}
	if _, ok := idx.Span(int64(-999999)); ok {
		t.Fatal("Span reported a run for an absent value")
	}
}

func TestBuildPartitionsLayout(t *testing.T) {
	r := NewRelation("R", 2, 1<<20)
	// 40 copies of value 7, 25 of value 3, and 100 distinct light values.
	for i := 0; i < 40; i++ {
		r.Add(7, int64(1000+i))
	}
	for i := 0; i < 25; i++ {
		r.Add(3, int64(2000+i))
	}
	for i := 0; i < 100; i++ {
		r.Add(int64(10000+i), int64(i))
	}
	before := sortedTuples(r)
	idx := r.BuildPartitions(0, 20) // heavy: count > 20 → values 7 and 3
	checkLayout(t, r, idx)
	if len(idx.Spans) != 2 {
		t.Fatalf("got %d spans, want 2 (values 3 and 7)", len(idx.Spans))
	}
	if idx.LightEnd != 100 || idx.Rows != 165 {
		t.Fatalf("LightEnd=%d Rows=%d, want 100 and 165", idx.LightEnd, idx.Rows)
	}
	if !tuplesEqual(before, sortedTuples(r)) {
		t.Fatal("partition rebuild changed the tuple multiset")
	}
	if r.Partitions() != idx {
		t.Fatal("Partitions() does not return the built index")
	}
}

func TestBuildPartitionsNoHeavy(t *testing.T) {
	r := NewRelation("R", 1, 1000)
	for i := 0; i < 50; i++ {
		r.Add(int64(i))
	}
	genBefore := r.gen
	col := append([]int64(nil), r.Column(0)...)
	idx := r.BuildPartitions(0, 10)
	if len(idx.Spans) != 0 || idx.LightEnd != 50 {
		t.Fatalf("skew-free relation built spans: %+v", idx)
	}
	if r.gen != genBefore {
		t.Fatal("trivial index bumped gen (would invalidate snapshots for nothing)")
	}
	for i, v := range r.Column(0) {
		if v != col[i] {
			t.Fatal("trivial index reordered rows")
		}
	}
}

func TestBuildPartitionsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		r := NewRelation("R", 3, 1<<16)
		n := 20 + rng.Intn(400)
		vals := 1 + rng.Intn(20) // small value domain → real skew
		for i := 0; i < n; i++ {
			r.Add(int64(rng.Intn(vals)), int64(rng.Intn(1<<16)), int64(i))
		}
		attr := rng.Intn(2)
		threshold := int64(rng.Intn(n/2 + 1))
		before := sortedTuples(r)
		idx := r.BuildPartitions(attr, threshold)
		checkLayout(t, r, idx)
		if !tuplesEqual(before, sortedTuples(r)) {
			t.Fatalf("trial %d: rebuild changed the tuple multiset", trial)
		}
		// Every value with count > threshold must have a span.
		counts := make(map[int64]int64)
		for _, v := range r.Column(attr) {
			counts[v]++
		}
		for v, c := range counts {
			sp, ok := idx.Span(v)
			if (c > threshold) != ok {
				t.Fatalf("trial %d: value %d count %d threshold %d: span=%v", trial, v, c, threshold, ok)
			}
			if ok && int64(sp.End-sp.Start) != c {
				t.Fatalf("trial %d: value %d run length %d, count %d", trial, v, sp.End-sp.Start, c)
			}
		}
	}
}

// TestBuildPartitionsParallelGather reaches the gather's parallel branch
// (at least gatherMinRows rows, more than one column): at GOMAXPROCS 1 and
// 4 the columns equal a serial stable partition — light rows in arrival
// order, then each heavy run in ascending value and arrival order — and a
// snapshot published before the build keeps its old arrays.
func TestBuildPartitionsParallelGather(t *testing.T) {
	const rows, threshold = 40_000, 1_000
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(int64(procs)))
		r := NewRelation("R", 3, 1<<40)
		for i := 0; i < rows; i++ {
			v := int64(1_000_000 + i) // light: distinct
			if rng.Intn(8) < 3 {
				v = int64(rng.Intn(5)) // heavy: ≈ 3,000 copies of each of 0..4
			}
			r.Add(v, rng.Int63n(1<<40), int64(i))
		}
		db := NewDatabase()
		db.Put(r)
		old := [][]int64{
			slices.Clone(r.Column(0)), slices.Clone(r.Column(1)), slices.Clone(r.Column(2)),
		}
		view := db.Snapshot().MustGet("R")

		// The serial reference: row order after the layout, by old row.
		var order []int
		for i, v := range old[0] {
			if v >= 1_000_000 {
				order = append(order, i)
			}
		}
		for h := int64(0); h < 5; h++ {
			for i, v := range old[0] {
				if v == h {
					order = append(order, i)
				}
			}
		}

		idx := r.BuildPartitions(0, threshold)
		runtime.GOMAXPROCS(prev)
		if rows < gatherMinRows || len(idx.Spans) != 5 {
			t.Fatalf("procs=%d: %d rows, %d spans: the parallel gather branch was not reached", procs, rows, len(idx.Spans))
		}
		for a := range old {
			col := r.Column(a)
			for j, i := range order {
				if col[j] != old[a][i] {
					t.Fatalf("procs=%d: column %d row %d = %d, want old row %d's %d", procs, a, j, col[j], i, old[a][i])
				}
			}
			if !slices.Equal(view.Column(a), old[a]) {
				t.Fatalf("procs=%d: column %d of the published view changed", procs, a)
			}
		}
	}
}

func TestEnsurePartitionedLifecycle(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("R", 2, 1<<20)
	for i := 0; i < 80; i++ {
		r.Add(5, int64(i)) // heavy at threshold 100/4=25
	}
	for i := 0; i < 20; i++ {
		r.Add(int64(100+i), int64(i))
	}
	db.Put(r)

	if !db.EnsurePartitioned("R", 0, 4) {
		t.Fatal("first ensure did not build")
	}
	checkLayout(t, r, r.Partitions())
	if db.EnsurePartitioned("R", 0, 4) {
		t.Fatal("second ensure rebuilt an already-current layout")
	}

	// A small append lands in the uncovered tail: the index stays valid and
	// current (tail*4 ≤ rows), so no rebuild.
	r.Add(999, 999)
	if db.EnsurePartitioned("R", 0, 4) {
		t.Fatal("tiny tail triggered a rebuild")
	}

	// Grow the tail past the rebuild rule (tail*4 > rows).
	for i := 0; i < 60; i++ {
		r.Add(5, int64(1000+i))
	}
	if !db.EnsurePartitioned("R", 0, 4) {
		t.Fatal("oversized tail did not trigger a rebuild")
	}
	checkLayout(t, r, r.Partitions())
	if got := r.Partitions().Rows; got != r.Size() {
		t.Fatalf("rebuilt index covers %d rows, relation has %d", got, r.Size())
	}

	// Missing relation: a graceful no.
	if db.EnsurePartitioned("nope", 0, 4) {
		t.Fatal("ensure on a missing relation reported a rebuild")
	}
	// Snapshot delegation reaches the master.
	snap := db.Snapshot()
	if snap.EnsurePartitioned("R", 0, 4) {
		t.Fatal("snapshot-delegated ensure rebuilt a current layout")
	}
}

// TestEnsurePartitionedFloorsThreshold: at m < p the threshold m/p floors to
// 0, which would make every value heavy. A value that occurs once never is,
// so only the one repeated value gets a span.
func TestEnsurePartitionedFloorsThreshold(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("R", 2, 1000)
	for i := int64(0); i < 10; i++ {
		r.Add(i, i)
	}
	r.Add(3, 100)
	db.Put(r)
	if !db.EnsurePartitioned("R", 0, 16) {
		t.Fatal("first ensure did not build")
	}
	idx := r.Partitions()
	checkLayout(t, r, idx)
	if idx.Threshold != 1 || len(idx.Spans) != 1 || idx.Spans[0].Value != 3 {
		t.Fatalf("m=11 p=16: threshold %d and %d spans %v, want threshold 1 and one span for value 3",
			idx.Threshold, len(idx.Spans), idx.Spans)
	}
}

func TestEnsurePartitionedHeavySetDrift(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("R", 1, 1<<20)
	for i := 0; i < 90; i++ {
		r.Add(1)
	}
	for i := 0; i < 10; i++ {
		r.Add(int64(100 + i))
	}
	db.Put(r)
	if !db.EnsurePartitioned("R", 0, 4) {
		t.Fatal("first ensure did not build")
	}
	// Delete most of the hitter in place (interior deletes invalidate), then
	// re-add light rows: the old heavy set no longer matches.
	for r.Size() > 20 {
		r.removeRow(0)
	}
	if r.Partitions() != nil {
		t.Fatal("interior delete kept a corrupt partition index")
	}
	if !db.EnsurePartitioned("R", 0, 4) {
		t.Fatal("ensure after invalidation did not rebuild")
	}
	checkLayout(t, r, r.Partitions())
}

func TestRemoveRowPartitionInvalidation(t *testing.T) {
	r := NewRelation("R", 1, 1<<20)
	for i := 0; i < 30; i++ {
		r.Add(7)
	}
	for i := 0; i < 10; i++ {
		r.Add(int64(100 + i))
	}
	idx := r.BuildPartitions(0, 20)
	// Rows appended after the build sit past idx.Rows: deleting them swaps
	// tail rows among themselves and keeps the index.
	r.Add(500)
	r.Add(501)
	r.removeRow(idx.Rows) // delete a tail row
	if r.Partitions() == nil {
		t.Fatal("tail delete invalidated the index")
	}
	checkLayout(t, r, r.Partitions())
	// Deleting under the covered prefix pulls an arbitrary row into a run:
	// the index must go.
	r.removeRow(0)
	if r.Partitions() != nil {
		t.Fatal("covered-prefix delete kept the index")
	}
}

func TestPartitionSharedWithSnapshotViews(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("R", 1, 1<<20)
	for i := 0; i < 40; i++ {
		r.Add(3)
	}
	for i := 0; i < 10; i++ {
		r.Add(int64(100 + i))
	}
	db.Put(r)

	before := db.Snapshot()
	beforeTuples := sortedTuples(before.MustGet("R"))
	if before.MustGet("R").Partitions() != nil {
		t.Fatal("pre-build snapshot already sees a partition index")
	}

	db.EnsurePartitioned("R", 0, 4)
	idx := r.Partitions()

	// The pre-build snapshot must keep its frozen, unpartitioned content.
	if before.MustGet("R").Partitions() != nil {
		t.Fatal("rebuild leaked a partition index into an old snapshot view")
	}
	if !tuplesEqual(beforeTuples, sortedTuples(before.MustGet("R"))) {
		t.Fatal("rebuild changed an old snapshot's content")
	}

	// The next snapshot shares the index by pointer and sees the new layout.
	after := db.Snapshot()
	if got := after.MustGet("R").Partitions(); got != idx {
		t.Fatalf("post-build snapshot index = %p, want shared %p", got, idx)
	}
	checkLayout(t, after.MustGet("R"), idx)
}

func TestSortDropsPartitions(t *testing.T) {
	r := NewRelation("R", 1, 1000)
	for i := 0; i < 30; i++ {
		r.Add(7)
	}
	r.Add(1)
	r.BuildPartitions(0, 10)
	r.Sort()
	if r.Partitions() != nil {
		t.Fatal("Sort kept a partition index over reordered rows")
	}
}

// TestPartitionRebuildRacesSnapshots drives concurrent snapshot readers
// against partition rebuilds and deltas on the master — the serving-mode
// interleaving the engine's auto-partition hook produces. Run under -race.
func TestPartitionRebuildRacesSnapshots(t *testing.T) {
	db := NewDatabase()
	r := NewRelation("R", 2, 1<<40)
	for i := 0; i < 2000; i++ {
		r.Add(int64(i%7), int64(i))
	}
	db.Put(r)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				sr := snap.MustGet("R")
				var sum int64
				for _, v := range sr.Column(0) {
					sum += v
				}
				if idx := sr.Partitions(); idx != nil {
					col := sr.Column(idx.Attr)
					for _, sp := range idx.Spans {
						if col[sp.Start] != sp.Value {
							panic("span run does not match its view")
						}
					}
				}
				_ = sum
			}
		}(int64(w))
	}
	next := int64(1 << 30)
	for i := 0; i < 300; i++ {
		d := &Delta{}
		for j := 0; j < 20; j++ {
			next++
			d.Insert("R", int64(i%5), next)
		}
		if err := db.Apply(d); err != nil {
			t.Fatal(err)
		}
		db.EnsurePartitioned("R", 0, 8)
	}
	close(stop)
	wg.Wait()
}

// Span returns the heavy run of value v, if v was heavy at build time.
func (idx *PartitionIndex) Span(v int64) (PartitionSpan, bool) {
	si, ok := idx.byValue[v]
	if !ok {
		return PartitionSpan{}, false
	}
	return idx.Spans[si], true
}
