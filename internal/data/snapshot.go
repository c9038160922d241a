package data

// Snapshot isolation for serving databases.
//
// A snapshot is an immutable *Database capturing one epoch of a mutable
// master: the relation set, every relation's rows, and the version at one
// consistent point. Executions read snapshots with no lock held, so
// Database.Apply never blocks behind a long-running query and queries never
// observe a half-applied delta.
//
// Snapshots are cheap because they share storage: each relation view is a
// capacity-clamped slice header over the master's column arrays, frozen at
// the published row count. Master appends land beyond the frozen prefix
// (or reallocate), so they are invisible to live views; the one interior
// write in the system — removeRow's swap-with-last under Apply — copies the
// columns first when it would touch the frozen prefix (Relation.unshare).
// Epochs are published when read, not when written: Apply only bumps the
// version, and the first Snapshot after it publishes under the write lock,
// reusing every view whose relation did not change (O(relations) slice
// headers). Publishing freezes rows, so Applies no reader looks at copy no
// column, and a delete copies only the first time after a read.

// Snapshot returns the database's current published epoch: an immutable
// *Database that shares the master's identity (ID) and storage but never
// changes — safe to read concurrently with Apply on the master, with no
// lock held. Calling Snapshot on a snapshot returns the master's *latest*
// epoch, not the receiver (background replanners use this to re-read fresh
// statistics from a retained handle).
//
// Mutating a snapshot is an error: Apply rejects it, and callers must not
// reach around the API (Put, Relation.Add) on one.
func (db *Database) Snapshot() *Database {
	db = db.Master()
	db.mu.RLock()
	if s := db.snap; s != nil && db.snapCurrentLocked(s) {
		db.mu.RUnlock()
		return s
	}
	db.mu.RUnlock()
	// Stale or never published: publish under the write lock.
	db.mu.Lock()
	defer db.mu.Unlock()
	if s := db.snap; s != nil && db.snapCurrentLocked(s) {
		return s
	}
	return db.publishLocked()
}

// Master returns the mutable database db's epochs come from: db itself, or
// a snapshot's master. Unlike Snapshot it publishes nothing, so a reader
// that needs only the schema (which Apply never changes) freezes no rows.
func (db *Database) Master() *Database {
	if db.parent != nil {
		return db.parent
	}
	return db
}

// snapCurrentLocked reports whether s still describes the master's current
// state: same version, same relation set, and every view frozen at its
// relation's current mutation gen. Callers hold db.mu (either mode).
func (db *Database) snapCurrentLocked(s *Database) bool {
	if s.version != db.version || len(s.Relations) != len(db.Relations) {
		return false
	}
	for name, r := range db.Relations {
		v := s.Relations[name]
		if v == nil || v.viewOf != r || v.viewGen != r.gen {
			return false
		}
	}
	return true
}

// publishLocked builds and installs a fresh epoch under db.mu (write mode),
// reusing views from the previous epoch for relations that did not change.
func (db *Database) publishLocked() *Database {
	prev := db.snap
	s := &Database{
		Relations: make(map[string]*Relation, len(db.Relations)),
		parent:    db,
		version:   db.version,
	}
	s.id.Store(db.ID())
	for name, r := range db.Relations {
		if prev != nil {
			if pv := prev.Relations[name]; pv != nil && pv.viewOf == r && pv.viewGen == r.gen {
				s.Relations[name] = pv
				continue
			}
		}
		s.Relations[name] = r.view()
	}
	db.snap = s
	return s
}
