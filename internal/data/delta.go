package data

import "fmt"

// Delta is a batched database mutation: an ordered list of tuple inserts
// and deletes across any relations of one database, applied atomically by
// Database.Apply. The zero value is an empty delta; Insert/Delete return
// the receiver for chaining.
type Delta struct {
	ops []deltaOp
}

type deltaOp struct {
	rel    string
	vals   []int64
	insert bool
}

// Insert records the insertion of one tuple into the named relation.
// The values are copied, so callers may reuse a scratch tuple (the
// ReadTuple idiom) across calls.
func (d *Delta) Insert(rel string, vals ...int64) *Delta {
	d.ops = append(d.ops, deltaOp{rel: rel, vals: append([]int64(nil), vals...), insert: true})
	return d
}

// Delete records the deletion of one tuple from the named relation. The
// values are copied, like Insert's.
func (d *Delta) Delete(rel string, vals ...int64) *Delta {
	d.ops = append(d.ops, deltaOp{rel: rel, vals: append([]int64(nil), vals...)})
	return d
}

// Len returns the number of recorded operations.
func (d *Delta) Len() int { return len(d.ops) }

// EachOp calls f on every recorded operation, in the order they were
// recorded. The vals slice is the delta's own storage: recorded operations
// are immutable (Insert/Delete only append), so callers may retain vals
// without copying, but must not modify it. Standing queries use this to
// re-route exactly the tuples a Database.Apply touched.
func (d *Delta) EachOp(f func(rel string, vals []int64, insert bool)) {
	for i := range d.ops {
		op := &d.ops[i]
		f(op.rel, op.vals, op.insert)
	}
}

// Apply mutates the database by the delta, atomically: either every
// operation applies, or none does and an error describes the first invalid
// one (unknown relation, arity or domain mismatch, deleting an absent
// tuple, inserting a duplicate — relations are duplicate-free). Operations
// apply in the order they were recorded, so a delta may delete a tuple it
// inserted earlier.
//
// Apply maintains each touched relation's serving state incrementally: the
// content-hash sum behind stats.Fingerprint (a reversible per-tuple fold)
// and the tuple index. The first Apply touching a relation builds that
// state with one scan; every later Apply costs O(delta), and fingerprinting
// the database afterwards costs O(relations) — the database mutates under
// live plan caches without any per-execution rescan.
//
// Apply holds the database's write lock, excluding other Apply calls and
// legacy RLock readers. Snapshot readers (repro.Session's Exec) are not
// blocked: a published epoch never changes, and Apply publishes none — the
// next Database.Snapshot does (see snapshot.go).
func (db *Database) Apply(d *Delta) error {
	if db.parent != nil {
		return fmt.Errorf("data: Apply on a snapshot: snapshots are immutable, apply to the master database")
	}
	if d == nil || len(d.ops) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.overlay == nil {
		db.overlay = new(overlay)
	}
	ov := db.overlay
	ov.op, ov.rels = ov.op[:0], ov.rels[:0]
	// Shape-check every operation and enable maintenance on every touched
	// relation before mutating anything.
	for i := range d.ops {
		op := &d.ops[i]
		r := db.Relations[op.rel]
		if r == nil {
			return fmt.Errorf("data: Apply: unknown relation %q", op.rel)
		}
		if len(op.vals) != r.Arity {
			return fmt.Errorf("data: Apply: %s: tuple arity %d, want %d", op.rel, len(op.vals), r.Arity)
		}
		if op.insert {
			for _, v := range op.vals {
				if v < 0 || v >= r.Domain {
					return fmt.Errorf("data: Apply: %s: value %d outside domain [0,%d)", op.rel, v, r.Domain)
				}
			}
		}
		if err := r.enableIndex(); err != nil {
			return err
		}
		ov.op = append(ov.op, int32(ov.touch(r)))
	}
	// Dry-run membership so the whole delta rejects before any mutation: a
	// key's presence comes from the relation's index until an operation of
	// this delta names it, and from the overlay after.
	for i := range d.ops {
		op := &d.ops[i]
		t := ov.op[i]
		e, first := ov.keys[t].Insert(op.vals)
		var present bool
		if first {
			present = ov.rels[t].index.Lookup(op.vals) >= 0
			ov.present[t] = append(ov.present[t], false)
		} else {
			present = ov.present[t][e]
		}
		if op.insert && present {
			return fmt.Errorf("data: Apply: %s: duplicate insert of %v", op.rel, Tuple(op.vals))
		}
		if !op.insert && !present {
			return fmt.Errorf("data: Apply: %s: delete of absent tuple %v", op.rel, Tuple(op.vals))
		}
		ov.present[t][e] = op.insert
	}
	for i := range d.ops {
		op := &d.ops[i]
		r := ov.rels[ov.op[i]]
		if op.insert {
			r.Add(op.vals...)
		} else {
			r.removeRow(r.index.Lookup(op.vals))
		}
	}
	// A consumer that observes version v (watch callback, drained capture
	// queue) gets an epoch ≥ v: Snapshot publishes on a version it has not seen.
	db.version++
	for _, w := range db.watchers {
		w(db.version, d)
	}
	return nil
}

// overlay is Apply's dry-run scratch: the relations a delta touches, in
// first-touch order, and for each the keys the delta's operations have named
// so far with their presence after those operations.
type overlay struct {
	op      []int32 // per operation: its relation's position in rels
	rels    []*Relation
	keys    []KeyTable // per rels[t]: the keys named so far
	present [][]bool   // per rels[t], per keys entry: present after the ops so far
}

// touch returns r's position in rels, adding r with emptied scratch on its
// first touch in this delta.
func (ov *overlay) touch(r *Relation) int {
	for t, seen := range ov.rels {
		if seen == r {
			return t
		}
	}
	t := len(ov.rels)
	ov.rels = append(ov.rels, r)
	if t == len(ov.keys) {
		ov.keys = append(ov.keys, KeyTable{})
		ov.present = append(ov.present, nil)
	}
	ov.keys[t].Reset(r.Arity)
	ov.present[t] = ov.present[t][:0]
	return t
}
