package repro

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// skewedJoin2DB builds a join2-shaped database with a Zipf-skewed join
// column — heavy enough that the skew-aware planners emit partition hints.
func skewedJoin2DB(m int) *Database {
	db := NewDatabase()
	db.Put(ZipfRelation("S1", m, 1<<40, 1, 1.6, 64, 1))
	db.Put(ZipfRelation("S2", m, 1<<40, 1, 1.6, 64, 2))
	return db
}

// TestPartitionedVsFlatEquivalence is the storage-layout property test: the
// heavy-partition layout is a pure physical reorder, so a session (which
// maintains layouts and span-routes over heavy runs) must produce exactly
// the same answers, the same realized loads, and the same content
// fingerprints as Run, which never partitions — under every single-round
// strategy, across a random delta sequence that forces rebuilds and
// invalidations. The session plans WithoutCache so both sides plan from the
// same statistics; its cached Exec must agree on answers too.
func TestPartitionedVsFlatEquivalence(t *testing.T) {
	strategies := []Strategy{StrategyHyperCube, StrategySkewJoin, StrategyBinCombination}
	q := Join2Query()
	rng := rand.New(rand.NewSource(3))

	dbFlat, dbPart := skewedJoin2DB(800), skewedJoin2DB(800)
	sPart, err := Open(Config{P: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer sPart.Close()

	ctx := context.Background()
	var inserted []Tuple // tuples added by deltas, candidates for deletion
	next := int64(1 << 30)
	for step := 0; step < 4; step++ {
		if step > 0 {
			// Identical random delta on both databases: deletes of earlier
			// steps' tuples (which by now sit inside the partition-covered
			// prefix and invalidate the index) plus skewed inserts that grow
			// the heavy runs' tails.
			d := NewDelta()
			for k := 0; k < 10 && len(inserted) > 0; k++ {
				i := rng.Intn(len(inserted))
				d.Delete("S1", inserted[i]...)
				inserted[i] = inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
			}
			for j := 0; j < 100; j++ {
				next++
				tup := Tuple{next, int64(rng.Intn(8))}
				d.Insert("S1", tup...)
				inserted = append(inserted, tup)
				next++
				d.Insert("S2", next, int64(rng.Intn(8)))
			}
			if err := dbFlat.Apply(d); err != nil {
				t.Fatal(err)
			}
			if err := dbPart.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := DatabaseFingerprint(dbPart), DatabaseFingerprint(dbFlat); got != want {
			t.Fatalf("step %d: fingerprints diverged: %x vs %x", step, got, want)
		}
		for _, st := range strategies {
			rFlat, err := Run(q, dbFlat, RunConfig{Strategy: st, P: 8, Seed: 7})
			if err != nil {
				t.Fatalf("step %d %v flat: %v", step, st, err)
			}
			rPart, err := sPart.Exec(ctx, q, dbPart, WithStrategy(st), WithoutCache())
			if err != nil {
				t.Fatalf("step %d %v partitioned: %v", step, st, err)
			}
			if !equalTupleSets(rFlat.Output, rPart.Output) {
				t.Fatalf("step %d %v: outputs diverge (%d vs %d tuples)",
					step, st, len(rFlat.Output), len(rPart.Output))
			}
			if rFlat.MaxLoadBits != rPart.MaxLoadBits {
				t.Fatalf("step %d %v: realized loads diverge: flat %d, partitioned %d",
					step, st, rFlat.MaxLoadBits, rPart.MaxLoadBits)
			}
			rCached, err := sPart.Exec(ctx, q, dbPart, WithStrategy(st))
			if err != nil {
				t.Fatalf("step %d %v cached: %v", step, st, err)
			}
			if !equalTupleSets(rFlat.Output, rCached.Output) {
				t.Fatalf("step %d %v: cached outputs diverge (%d vs %d tuples)",
					step, st, len(rFlat.Output), len(rCached.Output))
			}
		}
		// Partitioning must not leak into the flat layout's fingerprint.
		if got, want := DatabaseFingerprint(dbPart), DatabaseFingerprint(dbFlat); got != want {
			t.Fatalf("step %d: post-exec fingerprints diverged: %x vs %x", step, got, want)
		}
	}
	if sPart.CacheStats().Repartitions == 0 {
		t.Fatal("partitioned session never rebuilt a layout: the equivalence test exercised nothing")
	}
}

// TestPartitionRebuildRacesServing drives the serving interleaving end
// to end under -race: concurrent Execs (whose auto-partition hook rebuilds
// layouts on the master), Apply writers, and a standing query advancing over
// the same database.
func TestPartitionRebuildRacesServing(t *testing.T) {
	db := skewedJoin2DB(1000)
	s, err := Open(Config{P: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	q := Join2Query()

	sq, err := s.Standing(ctx, q, db, WithStrategy(StrategySkewJoin))
	if err != nil {
		t.Fatal(err)
	}
	defer sq.Close()

	var wg sync.WaitGroup
	for w, st := range []Strategy{StrategyHyperCube, StrategySkewJoin, StrategyBinCombination} {
		wg.Add(1)
		go func(w int, st Strategy) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.Exec(ctx, q, db, WithStrategy(st)); err != nil {
					panic(err)
				}
			}
		}(w, st)
	}
	next := int64(1 << 31)
	for i := 0; i < 15; i++ {
		d := NewDelta()
		for j := 0; j < 25; j++ {
			next++
			d.Insert("S1", next, int64(i%6))
			next++
			d.Insert("S2", next, int64(i%6))
		}
		if err := db.Apply(d); err != nil {
			t.Fatal(err)
		}
		if _, err := sq.Advance(ctx); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
