package data

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func relTuples(r *Relation) map[string]bool {
	m := make(map[string]bool, r.Size())
	for i := 0; i < r.Size(); i++ {
		m[keyAt(r, i)] = true
	}
	return m
}

func sameTuples(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func snapshotSeedDB(t testing.TB, rows int) *Database {
	t.Helper()
	db := NewDatabase()
	r := NewRelation("S1", 2, 1<<20)
	for i := 0; i < rows; i++ {
		r.Add(int64(i), int64(i%97))
	}
	db.Put(r)
	return db
}

func TestSnapshotStableUnderApply(t *testing.T) {
	db := snapshotSeedDB(t, 500)
	snap := db.Snapshot()
	if snap.Master() != db || db.Master() != db {
		t.Fatalf("Master: of the snapshot %p, of the master %p, want %p", snap.Master(), db.Master(), db)
	}
	if snap.ID() != db.ID() {
		t.Fatalf("snapshot ID %d != master ID %d", snap.ID(), db.ID())
	}
	before := relTuples(snap.MustGet("S1"))

	// Interior delete forces the copy-on-write path (row 3 is well inside
	// the frozen prefix), and the insert lands beyond it.
	if err := db.Apply(new(Delta).Delete("S1", 3, 3).Insert("S1", 1<<19, 7)); err != nil {
		t.Fatal(err)
	}

	after := relTuples(snap.MustGet("S1"))
	if !sameTuples(before, after) {
		t.Fatal("snapshot content changed under Apply")
	}
	if snap.MustGet("S1").Size() != 500 {
		t.Fatalf("snapshot size %d, want 500", snap.MustGet("S1").Size())
	}

	fresh := db.Snapshot()
	if fresh == snap {
		t.Fatal("Snapshot did not republish after Apply")
	}
	ft := relTuples(fresh.MustGet("S1"))
	if ft[Tuple{3, 3}.Key()] || !ft[Tuple{1 << 19, 7}.Key()] {
		t.Fatal("fresh snapshot does not reflect the applied delta")
	}
	if got, want := fresh.VersionLocked(), db.Version(); got != want {
		t.Fatalf("fresh snapshot version %d, want %d", got, want)
	}
}

// TestApplyStreamCopiesNoColumn: Apply publishes no epoch, so once the
// first delete after a Snapshot has copied the frozen columns, a stream of
// Applies no reader looks at writes in place. The stale epoch stays
// published and unchanged until the next Snapshot replaces it, and that
// read freezes the rows again: the next delete copies once more.
func TestApplyStreamCopiesNoColumn(t *testing.T) {
	db := snapshotSeedDB(t, 500)
	snap := db.Snapshot()
	before := relTuples(snap.MustGet("S1"))
	swap := []*Delta{
		new(Delta).Delete("S1", 3, 3).Insert("S1", 1<<19, 3),
		new(Delta).Delete("S1", 1<<19, 3).Insert("S1", 3, 3),
	}
	step := 0
	apply := func() {
		if err := db.Apply(swap[step%2]); err != nil {
			t.Fatal(err)
		}
		step++
	}
	apply() // row 3 is frozen: this delete copies the columns
	r := db.MustGet("S1")
	backing := &r.Column(0)[0]
	for i := 0; i < 100; i++ {
		apply()
	}
	if &r.Column(0)[0] != backing {
		t.Error("an Apply with no read since the last one replaced the column backing")
	}
	if db.snap != snap {
		t.Error("Apply published an epoch")
	}
	if !sameTuples(before, relTuples(snap.MustGet("S1"))) {
		t.Fatal("the stale epoch changed under Apply")
	}

	fresh := db.Snapshot()
	if fresh == snap || fresh.VersionLocked() != db.Version() {
		t.Fatalf("Snapshot after %d Applies returned version %d, want a new epoch at %d", step, fresh.VersionLocked(), db.Version())
	}
	if !sameTuples(relTuples(r), relTuples(fresh.MustGet("S1"))) {
		t.Fatal("the new epoch does not hold the master's rows")
	}
	apply()
	if &r.Column(0)[0] == backing {
		t.Error("a delete of a row the new epoch froze wrote into its backing")
	}
}

// TestSnapshotsIsolatedUnderRandomInterleaving interleaves two-op Applies
// (a delete of a random row, frozen or not, and an insert) with Snapshot
// reads at random points. Every Snapshot must hold every Apply before it,
// and every epoch taken must keep its rows and version to the end, however
// many unread Applies (each publishing nothing) followed it.
func TestSnapshotsIsolatedUnderRandomInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := snapshotSeedDB(t, 200)
	r := db.MustGet("S1")
	type epoch struct {
		snap    *Database
		version uint64
		rows    map[string]bool
	}
	var epochs []epoch
	next := int64(1 << 19)
	for step := 0; step < 400; step++ {
		if rng.Intn(4) == 0 {
			s := db.Snapshot()
			rows := relTuples(r)
			if s.VersionLocked() != db.Version() || !sameTuples(rows, relTuples(s.MustGet("S1"))) {
				t.Fatalf("step %d: Snapshot misses an Apply before it", step)
			}
			epochs = append(epochs, epoch{s, s.VersionLocked(), rows})
			continue
		}
		d := new(Delta).Delete("S1", r.Tuple(rng.Intn(r.Size()))...).Insert("S1", next, next%97)
		next++
		if err := db.Apply(d); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	for i, e := range epochs {
		if e.snap.VersionLocked() != e.version || !sameTuples(e.rows, relTuples(e.snap.MustGet("S1"))) {
			t.Errorf("epoch %d (version %d) changed after it was published", i, e.version)
		}
	}
}

func TestSnapshotOfSnapshotIsLatestEpoch(t *testing.T) {
	db := snapshotSeedDB(t, 50)
	old := db.Snapshot()
	if err := db.Apply(new(Delta).Insert("S1", 1<<19, 1)); err != nil {
		t.Fatal(err)
	}
	latest := old.Snapshot()
	if latest == old {
		t.Fatal("Snapshot on a snapshot returned the stale epoch")
	}
	if latest != db.Snapshot() {
		t.Fatal("Snapshot on a snapshot is not the master's current epoch")
	}
}

func TestSnapshotReusesUntouchedViews(t *testing.T) {
	db := snapshotSeedDB(t, 50)
	other := NewRelation("S2", 2, 1<<20)
	other.Add(1, 2)
	db.Put(other)
	s1 := db.Snapshot()
	if err := db.Apply(new(Delta).Insert("S1", 1<<19, 1)); err != nil {
		t.Fatal(err)
	}
	s2 := db.Snapshot()
	if s2.MustGet("S2") != s1.MustGet("S2") {
		t.Fatal("untouched relation view was rebuilt across epochs")
	}
	if s2.MustGet("S1") == s1.MustGet("S1") {
		t.Fatal("touched relation view was reused across epochs")
	}
}

func TestSnapshotSeesConstructionMutation(t *testing.T) {
	db := snapshotSeedDB(t, 10)
	s1 := db.Snapshot()
	// Construction-time mutation outside Apply: Put a new relation and Add
	// to an existing one directly. Snapshot must notice both.
	r := NewRelation("S2", 1, 100)
	r.Add(5)
	db.Put(r)
	db.MustGet("S1").Add(99, 99)
	s2 := db.Snapshot()
	if s2 == s1 {
		t.Fatal("Snapshot returned a stale epoch after construction mutation")
	}
	if s2.Get("S2") == nil || s2.MustGet("S1").Size() != 11 {
		t.Fatal("snapshot missed construction-time mutation")
	}
	if s1.Get("S2") != nil || s1.MustGet("S1").Size() != 10 {
		t.Fatal("old snapshot observed construction-time mutation")
	}
}

func TestApplyOnSnapshotErrors(t *testing.T) {
	db := snapshotSeedDB(t, 10)
	snap := db.Snapshot()
	if err := snap.Apply(new(Delta).Insert("S1", 1, 1)); err == nil {
		t.Fatal("Apply on a snapshot succeeded")
	}
}

func TestSnapshotContentSumMatchesRescan(t *testing.T) {
	db := snapshotSeedDB(t, 200)
	if err := db.Apply(new(Delta).Delete("S1", 7, 7).Insert("S1", 1<<19, 3)); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	r := snap.MustGet("S1")
	maintained := r.ContentSum()
	var scanned uint64
	for i := 0; i < r.Size(); i++ {
		scanned += r.rowHash(i)
	}
	if maintained != scanned {
		t.Fatalf("snapshot content sum %x != rescan %x", maintained, scanned)
	}
}

// TestSnapshotConcurrentReadersWriter hammers Apply while readers hold and
// verify snapshots; run under -race this proves readers never touch the
// write lock's critical data.
func TestSnapshotConcurrentReadersWriter(t *testing.T) {
	db := snapshotSeedDB(t, 300)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				r := snap.MustGet("S1")
				n := r.Size()
				ts := relTuples(r)
				if len(ts) != n {
					panic(fmt.Sprintf("snapshot with duplicate tuples: %d keys over %d rows", len(ts), n))
				}
				// Re-read: the snapshot must not move under us.
				if r.Size() != n || !sameTuples(ts, relTuples(r)) {
					panic("snapshot content moved during read")
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		v := int64(1<<18 + i)
		if err := db.Apply(new(Delta).Insert("S1", v, 0).Delete("S1", int64(i), int64(i%97))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkApplyDelta2Op guards the serving-path Apply cost: a 2-op delta
// against a warm (stats-maintained, snapshot-published) relation must stay
// O(delta) — on the order of a microsecond, not O(database).
func BenchmarkApplyDelta2Op(b *testing.B) {
	db := snapshotSeedDB(b, 100_000)
	// Warm: enable maintenance and publish an epoch so the bench measures
	// the steady serving state (the Applies below publish none).
	if err := db.Apply(new(Delta).Insert("S1", 1<<19, 1).Delete("S1", 1<<19, 1)); err != nil {
		b.Fatal(err)
	}
	db.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Apply(new(Delta).Insert("S1", 1<<19, 1).Delete("S1", 1<<19, 1)); err != nil {
			b.Fatal(err)
		}
	}
}
