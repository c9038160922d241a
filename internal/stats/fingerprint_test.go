package stats

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/workload"
)

// TestFingerprintIncrementalMatchesRescan is the property test behind the
// serving hit path: after arbitrary random delta sequences, the maintained
// (incremental) fingerprint must equal the from-scratch rescan, and a
// structurally identical database built fresh must fingerprint the same.
func TestFingerprintIncrementalMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := data.NewDatabase()
	db.Put(workload.Uniform("S1", 2, 200, 500, 1))
	db.Put(workload.Uniform("S2", 3, 150, 500, 2))

	if got, want := Fingerprint(db), FingerprintRescan(db); got != want {
		t.Fatalf("pre-delta: incremental %x != rescan %x", got, want)
	}

	for step := 0; step < 120; step++ {
		d := new(data.Delta)
		for o := 0; o < 1+rng.Intn(5); o++ {
			name := "S1"
			arity := 2
			if rng.Intn(2) == 0 {
				name, arity = "S2", 3
			}
			r := db.MustGet(name)
			if rng.Intn(2) == 0 && r.Size() > 0 {
				i := rng.Intn(r.Size())
				d.Delete(name, r.Tuple(i)...)
			} else {
				vals := make([]int64, arity)
				for a := range vals {
					vals[a] = rng.Int63n(500)
				}
				d.Insert(name, vals...)
			}
		}
		// Some deltas legitimately fail (duplicate insert, double delete of
		// the same sampled row); the property must hold either way.
		applyErr := db.Apply(d)
		got, want := Fingerprint(db), FingerprintRescan(db)
		if got != want {
			t.Fatalf("step %d (apply err=%v): incremental %x != rescan %x", step, applyErr, got, want)
		}
	}

	// Same content rebuilt from scratch (different insertion order, no
	// maintenance enabled) fingerprints identically.
	rebuilt := data.NewDatabase()
	for _, name := range db.Names() {
		src := db.MustGet(name)
		r := data.NewRelation(name, src.Arity, src.Domain)
		for i := src.Size() - 1; i >= 0; i-- {
			r.Add(src.Tuple(i)...)
		}
		rebuilt.Put(r)
	}
	if got, want := FingerprintRescan(rebuilt), Fingerprint(db); got != want {
		t.Fatalf("rebuilt rescan %x != maintained %x", got, want)
	}
}

func TestSchemaFingerprint(t *testing.T) {
	db := data.NewDatabase()
	db.Put(workload.Uniform("S1", 2, 50, 100, 1))
	db.Put(workload.Uniform("S2", 2, 50, 100, 2))
	base := SchemaFingerprint(db)

	// Content changes don't move the schema fingerprint.
	if err := db.Apply(new(data.Delta).Insert("S1", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if SchemaFingerprint(db) != base {
		t.Fatal("content delta changed schema fingerprint")
	}
	// Shape changes do.
	db.Put(data.NewRelation("S2", 3, 100))
	if SchemaFingerprint(db) == base {
		t.Fatal("arity change kept schema fingerprint")
	}
}

// TestStatsFastPathsAgree pins the maintained-statistics fast paths to the
// scanning implementations.
func TestStatsFastPathsAgree(t *testing.T) {
	r := workload.Zipf("Z", 400, 1000, 1, 1.4, 37, 3)
	db := data.NewDatabase()
	db.Put(r)

	scan := new(Pass).Collect(r, 8)
	// Enable maintenance via a no-net-change delta.
	if err := db.Apply(new(data.Delta).Insert("Z", 999, 999).Delete("Z", 999, 999)); err != nil {
		t.Fatal(err)
	}
	fast := new(Pass).Collect(r, 8)
	for a := 0; a < r.Arity; a++ {
		if r.AttrCounts(a) == nil {
			t.Fatalf("attr %d: maintenance not enabled", a)
		}
		if got, want := len(r.AttrCounts(a)), Frequencies(r, []int{a}).Distinct(); got != want {
			t.Fatalf("attr %d: %d maintained distinct values, the scan finds %d", a, got, want)
		}
		key := AttrKey([]int{a})
		if len(scan.ByAttrs[key].Counts) == 0 && a == 1 {
			t.Fatal("zipf column has no heavy hitter to compare")
		}
		if !freqMapsEqual(fast.ByAttrs[key], scan.ByAttrs[key]) {
			t.Fatalf("attr %d: heavy hitters off the maintained counts %v, off the scan %v",
				a, fast.ByAttrs[key].Counts, scan.ByAttrs[key].Counts)
		}
	}
}
