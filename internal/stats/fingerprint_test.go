package stats

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/hashing"
	"repro/internal/workload"
)

// fingerprintRescan is Fingerprint recomputed from scratch with one serial
// scan per relation, ignoring the maintained content sums: the reference
// the incremental maintenance is held to.
func fingerprintRescan(db *data.Database) uint64 {
	h := hashing.FNVOffset
	for _, name := range db.Names() {
		r := db.Relations[name]
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * hashing.FNVPrime
		}
		h = (h ^ uint64(r.Arity)) * hashing.FNVPrime
		h = (h ^ uint64(r.Domain)) * hashing.FNVPrime
		h = (h ^ uint64(r.Size())) * hashing.FNVPrime
		var content uint64
		for i := 0; i < r.Size(); i++ {
			th := hashing.FNVOffset
			for _, col := range r.Columns() {
				th = (th ^ uint64(col[i])) * hashing.FNVPrime
			}
			content += hashing.Mix64(th)
		}
		h = (h ^ content) * hashing.FNVPrime
	}
	return h
}

// TestFingerprintIncrementalMatchesRescan is the property test behind the
// serving hit path: after arbitrary random delta sequences, the maintained
// (incremental) fingerprint must equal the from-scratch rescan, and a
// structurally identical database built fresh must fingerprint the same.
func TestFingerprintIncrementalMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := data.NewDatabase()
	db.Put(workload.Uniform("S1", 2, 200, 500, 1))
	db.Put(workload.Uniform("S2", 3, 150, 500, 2))

	if got, want := Fingerprint(db), fingerprintRescan(db); got != want {
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
		got, want := Fingerprint(db), fingerprintRescan(db)
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
	if got, want := fingerprintRescan(rebuilt), Fingerprint(db); got != want {
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
