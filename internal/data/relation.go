// Package data stores relation instances over an integer domain [n] and
// accounts their size in bits, matching the paper's convention
// M_j = a_j · m_j · log n for a relation with arity a_j and m_j tuples.
//
// Storage is columnar: one []int64 per attribute. Routers hash only the
// join columns, local joins scan only the attributes they touch, and the
// simulator's communication phase ships column slices — row views exist
// only at the edges (tests, debug output, reference algorithms).
package data

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/hashing"
)

// Tuple is one row of a relation; len(Tuple) is the relation's arity.
type Tuple []int64

// Key renders a tuple as a string, for error and debug formatting and as a
// map key in tests. It allocates.
func (t Tuple) Key() string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// BitsPerValue returns ⌈log₂ n⌉ (minimum 1), the bits needed to encode one
// value from a domain of size n.
func BitsPerValue(domain int64) int {
	if domain <= 1 {
		return 1
	}
	return bits.Len64(uint64(domain - 1))
}

// Maintained-state flag bits (Relation.track).
const (
	// trackContent: contentSum mirrors the commutative fold of per-tuple
	// hashes, so fingerprints stop scanning this relation.
	trackContent uint32 = 1 << iota
	// trackIndex: index (tuple → row) is maintained, enabling O(delta)
	// Database.Apply.
	trackIndex
)

// Relation is a named multiset-free relation instance S_j ⊆ [domain]^arity,
// stored column-wise: cols[a][i] is attribute a of tuple i. Duplicate
// insertion is the caller's responsibility to avoid (generators never
// produce duplicates; AddUnique enforces it when needed).
//
// A relation lazily maintains serving state — a reversible content-hash sum
// (ContentSum) and a tuple index — once a fingerprint or a Database.Apply
// first touches it. It counts no values: statistics group the columns when
// a plan asks (stats.Pass). Maintenance must not be enabled concurrently
// with mutation: the serving path orders them through the Database lock
// (Apply writes under Lock, executions read under RLock).
type Relation struct {
	Name   string
	Arity  int
	Domain int64
	cols   [][]int64
	rows   int

	// gen counts mutations; snapshot views record the gen they froze so
	// Database.Snapshot can tell whether a published view is still current.
	gen uint64
	// frozen is the published high-water mark of the current column
	// backing: rows [0, frozen) are visible to live snapshot views sharing
	// this backing, so interior mutation below frozen must copy the columns
	// first (unshare). Appends always land at indexes ≥ frozen and never
	// need the copy.
	frozen int
	// viewOf/viewGen identify a snapshot view: the master relation it
	// froze and that master's gen at freeze time. Nil/0 on masters.
	viewOf  *Relation
	viewGen uint64

	// part is the heavy-partition layout index (see partition.go), nil when
	// unpartitioned. It is immutable and replaced wholesale, so snapshot
	// views share the pointer. partCheckedGen records the gen at which
	// EnsurePartitioned last validated the layout, making repeated serving
	// checks O(1) between mutations.
	part           *PartitionIndex
	partCheckedGen uint64

	// track holds the maintained-state flag bits; mutators check it with
	// one atomic load so untracked relations (server fragments, join
	// outputs — the communication hot path) pay nothing else.
	track atomic.Uint32
	// trackMu guards lazy initialization of the maintained state.
	trackMu    sync.Mutex
	contentSum uint64
	// index holds every row's tuple with entry i = row i: appends insert,
	// removeRow's swap-remove is mirrored by the table's own, and row
	// permutations (Sort, BuildPartitions) rebuild it.
	index *KeyTable
}

// view returns an immutable snapshot view of the relation's current rows,
// sharing the column backing: each view column is a capacity-clamped slice
// of the master's, so master appends beyond the frozen prefix are invisible
// to the view and reallocate rather than overwrite. The master's frozen
// mark advances to the current row count, which is what makes later
// interior mutation (removeRow's swap, below frozen) copy first. The view
// inherits the maintained content sum (fingerprints stay O(relations)); the
// tuple index stays master-only — it mutates in place under Apply and cannot
// be shared with concurrent readers.
func (r *Relation) view() *Relation {
	v := &Relation{
		Name: r.Name, Arity: r.Arity, Domain: r.Domain,
		cols: make([][]int64, len(r.cols)), rows: r.rows,
		viewOf: r, viewGen: r.gen,
	}
	for a, col := range r.cols {
		v.cols[a] = col[:r.rows:r.rows]
	}
	// The partition index covers a prefix of the frozen rows and never
	// mutates, so the view shares it; if the master later invalidates or
	// replaces its own index, the view's copy stays valid for the view's
	// immutable rows.
	v.part = r.part
	if r.track.Load()&trackContent != 0 {
		v.contentSum = r.contentSum
		v.track.Store(trackContent)
	}
	r.frozen = r.rows
	return v
}

// unshare copies every column onto fresh backing, detaching the relation
// from any snapshot views that froze the current arrays. Called before the
// first interior write below the frozen mark.
func (r *Relation) unshare() {
	for a := range r.cols {
		c := make([]int64, r.rows)
		copy(c, r.cols[a][:r.rows])
		r.cols[a] = c
	}
	r.frozen = 0
}

// rowHash is the per-tuple content hash Fingerprint folds: FNV-1a over the
// row's values, avalanched. Summing it over rows (mod 2^64) is reversible,
// which is what makes delta maintenance O(delta).
func (r *Relation) rowHash(i int) uint64 {
	th := hashing.FNVOffset
	for _, col := range r.cols {
		th = (th ^ uint64(col[i])) * hashing.FNVPrime
	}
	return hashing.Mix64(th)
}

// ContentSum returns the commutative fold (sum mod 2^64) of the avalanched
// per-tuple hashes — the per-relation term of stats.Fingerprint. The first
// call scans the relation and enables incremental maintenance: subsequent
// mutations update the sum per tuple, so fingerprinting a served database
// costs O(relations), not O(tuples). Concurrent ContentSum calls are safe;
// callers must not mutate the relation concurrently (the serving path
// excludes that via the Database lock).
func (r *Relation) ContentSum() uint64 {
	if r.track.Load()&trackContent != 0 {
		return r.contentSum
	}
	r.trackMu.Lock()
	defer r.trackMu.Unlock()
	if r.track.Load()&trackContent != 0 {
		return r.contentSum
	}
	var sum uint64
	for i := 0; i < r.rows; i++ {
		sum += r.rowHash(i)
	}
	r.contentSum = sum
	r.track.Store(r.track.Load() | trackContent)
	return sum
}

// enableIndex builds the tuple index (and the content sum), enabling
// O(delta) Apply. It errors on a duplicate tuple: delta semantics (delete
// one occurrence, reject duplicate inserts) need duplicate-free relations,
// which every generator in this repository produces.
func (r *Relation) enableIndex() error {
	if r.track.Load()&trackIndex != 0 {
		return nil
	}
	r.trackMu.Lock()
	defer r.trackMu.Unlock()
	if r.track.Load()&trackIndex != 0 {
		return nil
	}
	index := new(KeyTable)
	if dup := reindex(index, r); dup >= 0 {
		return fmt.Errorf("data: %s: duplicate tuple %v: deltas require duplicate-free relations", r.Name, r.Tuple(dup))
	}
	var sum uint64
	for i := 0; i < r.rows; i++ {
		sum += r.rowHash(i)
	}
	r.index = index
	r.contentSum = sum
	r.track.Store(r.track.Load() | trackContent | trackIndex)
	return nil
}

// reindex refills index with r's rows in row order (entry i = row i) and
// returns the first row whose tuple repeats an earlier one, or -1.
func reindex(index *KeyTable, r *Relation) (dup int) {
	index.Reset(r.Arity)
	row := make([]int64, r.Arity)
	for i := 0; i < r.rows; i++ {
		if _, added := index.Insert(r.ReadTuple(i, row)); !added {
			return i
		}
	}
	return -1
}

// noteAppended folds row i (just appended) into the maintained state.
func (r *Relation) noteAppended(i int) {
	t := r.track.Load()
	if t&trackContent != 0 {
		r.contentSum += r.rowHash(i)
	}
	if t&trackIndex != 0 {
		var buf [8]int64 // wider rows spill to the heap
		row := buf[:0]
		for _, col := range r.cols {
			row = append(row, col[i])
		}
		if _, added := r.index.Insert(row); !added {
			// A duplicate appended outside Apply (Add does not check) breaks
			// entry i = row i; the next Apply rebuilds and rejects it.
			r.index = nil
			r.track.Store(t &^ trackIndex)
		}
	}
}

// removeRow deletes row i by swapping in the last row (tuple order carries
// no meaning anywhere: routing is per-tuple and fingerprints are
// order-independent), maintaining whatever serving state is enabled.
func (r *Relation) removeRow(i int) {
	// The swap writes into row i (and the truncation drops the last row,
	// which stays ≥ the frozen mark); if row i is visible to a published
	// snapshot view sharing this backing, copy the columns first.
	if i < r.frozen {
		r.unshare()
	}
	// A delete below the partition-covered prefix breaks the layout (the
	// swap pulls an arbitrary row into a heavy run); deletes in the
	// uncovered tail swap tail rows among themselves and keep it. The next
	// EnsurePartitioned rebuilds lazily.
	if r.part != nil && i < r.part.Rows {
		r.part = nil
	}
	r.gen++
	t := r.track.Load()
	if t&trackContent != 0 {
		r.contentSum -= r.rowHash(i)
	}
	if t&trackIndex != 0 {
		r.index.Delete(i) // moves entry last to i, exactly as the rows move below
	}
	last := r.rows - 1
	if i != last {
		for a := range r.cols {
			r.cols[a][i] = r.cols[a][last]
		}
	}
	for a := range r.cols {
		r.cols[a] = r.cols[a][:last]
	}
	r.rows = last
}

// NewRelation returns an empty relation.
func NewRelation(name string, arity int, domain int64) *Relation {
	if arity < 0 || domain < 1 {
		panic(fmt.Sprintf("data: bad relation shape arity=%d domain=%d", arity, domain))
	}
	return &Relation{Name: name, Arity: arity, Domain: domain, cols: make([][]int64, arity)}
}

// Add appends a tuple. Values must lie in [0, Domain).
func (r *Relation) Add(vals ...int64) {
	if len(vals) != r.Arity {
		panic(fmt.Sprintf("data: %s: tuple arity %d, want %d", r.Name, len(vals), r.Arity))
	}
	for a, v := range vals {
		if v < 0 || v >= r.Domain {
			panic(fmt.Sprintf("data: %s: value %d outside domain [0,%d)", r.Name, v, r.Domain))
		}
		r.cols[a] = append(r.cols[a], v)
	}
	r.rows++
	r.gen++
	if r.track.Load() != 0 {
		r.noteAppended(r.rows - 1)
	}
}

// AppendColumns bulk-appends count rows given column-wise (cols[a] holds
// attribute a of every appended row). Values are trusted — they must lie in
// [0, Domain) already, as on the simulator's delivery path (each validated
// on its original Add) or from a generator. The slices are copied.
func (r *Relation) AppendColumns(cols [][]int64, count int) {
	if len(cols) != r.Arity {
		panic(fmt.Sprintf("data: %s: AppendColumns arity %d, want %d", r.Name, len(cols), r.Arity))
	}
	for a := range r.cols {
		r.cols[a] = append(r.cols[a], cols[a][:count]...)
	}
	r.rows += count
	r.gen++
	if r.track.Load() != 0 {
		for i := r.rows - count; i < r.rows; i++ {
			r.noteAppended(i)
		}
	}
}

// AdoptColumns makes count caller-built rows (cols[a] holds attribute a of
// each) the storage of an empty relation without copying them. The caller
// must not write to the slices once others read the relation; each is
// clamped to count, so a later append reallocates instead of running into a
// neighbour cut from the same buffer. Values are trusted exactly as in
// AppendColumns. It panics on a relation that holds rows or maintains
// serving state.
func (r *Relation) AdoptColumns(cols [][]int64, count int) {
	if len(cols) != r.Arity {
		panic(fmt.Sprintf("data: %s: AdoptColumns arity %d, want %d", r.Name, len(cols), r.Arity))
	}
	if r.rows != 0 || r.track.Load() != 0 {
		panic(fmt.Sprintf("data: %s: AdoptColumns needs an empty, untracked relation", r.Name))
	}
	for a := range r.cols {
		r.cols[a] = cols[a][:count:count]
	}
	r.rows = count
	r.gen++
}

// AppendRow appends row i of src, which must have the same arity.
// Values are trusted (src already validated them).
func (r *Relation) AppendRow(src *Relation, i int) {
	if src.Arity != r.Arity {
		panic(fmt.Sprintf("data: %s: AppendRow from arity %d, want %d", r.Name, src.Arity, r.Arity))
	}
	for a := range r.cols {
		r.cols[a] = append(r.cols[a], src.cols[a][i])
	}
	r.rows++
	r.gen++
	if r.track.Load() != 0 {
		r.noteAppended(r.rows - 1)
	}
}

// Size returns m, the number of tuples.
func (r *Relation) Size() int { return r.rows }

// Column returns attribute a of every tuple — the columnar view routers
// and joins scan. The slice aliases internal storage: callers must treat
// it as read-only and must not retain it across Add calls.
func (r *Relation) Column(a int) []int64 { return r.cols[a][:r.rows] }

// Columns returns all column slices (read-only, like Column).
func (r *Relation) Columns() [][]int64 { return r.cols }

// At returns attribute a of tuple i.
func (r *Relation) At(i, a int) int64 { return r.cols[a][i] }

// Tuple materializes the i-th tuple as a fresh row. It allocates — hot
// paths read Column/At directly or use ReadTuple with reusable scratch.
func (r *Relation) Tuple(i int) Tuple {
	return r.ReadTuple(i, make(Tuple, r.Arity))
}

// ReadTuple gathers the i-th tuple into dst (which must have length
// Arity) and returns dst.
func (r *Relation) ReadTuple(i int, dst Tuple) Tuple {
	for a, col := range r.cols {
		dst[a] = col[i]
	}
	return dst
}

// Each calls f on every tuple; returning false stops early. The Tuple
// view is scratch reused across iterations (one allocation per Each
// call): it is only valid inside the callback and must be copied to be
// retained. Each itself never writes to the relation, so concurrent scans
// of one relation are safe.
func (r *Relation) Each(f func(i int, t Tuple) bool) {
	t := make(Tuple, r.Arity)
	for i := 0; i < r.rows; i++ {
		for a, col := range r.cols {
			t[a] = col[i]
		}
		if !f(i, t) {
			return
		}
	}
}

// BitsPerTuple returns a_j·⌈log₂ n⌉.
func (r *Relation) BitsPerTuple() int64 {
	return int64(r.Arity) * int64(BitsPerValue(r.Domain))
}

// Bits returns M_j = a_j · m_j · ⌈log₂ n⌉, the size of the relation in bits.
func (r *Relation) Bits() int64 {
	return int64(r.Size()) * r.BitsPerTuple()
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.Name, r.Arity, r.Domain)
	for a := range r.cols {
		c.cols[a] = append([]int64(nil), r.cols[a]...)
	}
	c.rows = r.rows
	return c
}

// Sort orders tuples lexicographically in place (used to canonicalize for
// comparisons in tests). Column-wise: sort a row permutation, then gather
// each column once.
func (r *Relation) Sort() {
	idx := make([]int, r.rows)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		for _, col := range r.cols {
			if col[ia] != col[ib] {
				return col[ia] < col[ib]
			}
		}
		return false
	})
	for a, col := range r.cols {
		sorted := make([]int64, r.rows)
		for out, i := range idx {
			sorted[out] = col[i]
		}
		r.cols[a] = sorted
	}
	// The gather above replaced every column's backing, so any published
	// snapshot views keep their (unsorted, equal-content) arrays untouched.
	r.frozen = 0
	r.gen++
	// Lexicographic order is not the partition layout.
	r.part = nil
	// The content sum is permutation-invariant; only the tuple index maps
	// rows and must be rebuilt.
	if r.track.Load()&trackIndex != 0 {
		reindex(r.index, r)
	}
}

// ContainsDuplicates reports whether any tuple occurs twice.
func (r *Relation) ContainsDuplicates() bool {
	return reindex(new(KeyTable), r) >= 0
}

// Database is a set of relations keyed by relation (atom) name.
//
// A database serving mutable traffic is synchronized through its own
// reader/writer lock: Apply mutates under the write lock, and executions
// that must observe a consistent snapshot hold RLock/RUnlock around their
// run (repro.Session does). Construction-time mutation (Put, generator
// Adds) needs no locking — it happens before the database is shared.
type Database struct {
	Relations map[string]*Relation

	mu sync.RWMutex
	id atomic.Uint64

	// version counts successful Apply calls; watchers receive it with each
	// applied delta so consumers (standing queries) can order and deduplicate
	// the capture stream against state they rebuilt from a snapshot.
	version  uint64
	watchers map[int]func(version uint64, d *Delta)
	nextW    int

	// parent is non-nil on snapshot epochs (see Snapshot): the mutable
	// master database this epoch was published from. Snapshots are
	// immutable — Apply rejects them and Snapshot/Watch delegate to the
	// parent.
	parent *Database
	// snap is the master's last published epoch, or nil before the first
	// Snapshot. Only Snapshot writes it, under the write lock. Apply leaves it
	// stale, so it may keep one pre-unshare backing per relation alive.
	snap *Database
	// overlay is Apply's validation scratch, retained across calls so a
	// steady Apply stream stops allocating it per batch.
	overlay *overlay
}

// dbIDs hands out process-unique database identities.
var dbIDs atomic.Uint64

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{Relations: make(map[string]*Relation)}
}

// ID returns a process-unique identity for this database, assigned on first
// use. The engine's plan cache keys on it (plus the schema) instead of the
// content fingerprint, so cached plans survive Apply deltas.
func (db *Database) ID() uint64 {
	if id := db.id.Load(); id != 0 {
		return id
	}
	db.id.CompareAndSwap(0, dbIDs.Add(1))
	return db.id.Load()
}

// RLock takes the database's serving lock for a read (an execution that
// must not observe a half-applied delta). Apply excludes readers.
func (db *Database) RLock() { db.mu.RLock() }

// RUnlock releases RLock.
func (db *Database) RUnlock() { db.mu.RUnlock() }

// Version returns the number of successful Apply calls so far. Callers
// that need a version consistent with the content they observe read it
// under RLock; the bare read here is for diagnostics.
func (db *Database) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// VersionLocked is Version for callers already holding RLock. Go's RWMutex
// read lock is not recursive — re-acquiring it while a writer waits
// deadlocks — so lock-holding callers (a standing query reading a
// consistent snapshot) must use this form.
func (db *Database) VersionLocked() uint64 { return db.version }

// Watch registers w to be called after every successful Apply, under the
// database's write lock (so notifications are totally ordered and the
// delta's effects are fully visible when w runs). w receives the post-apply
// version and the applied delta; it must be fast and must not call back
// into the database. The returned function unregisters the watcher.
//
// This is the delta-capture hook standing queries subscribe to: instead of
// re-reading the database, they replay exactly the operations that changed
// it.
func (db *Database) Watch(w func(version uint64, d *Delta)) (unwatch func()) {
	db = db.Master() // snapshots never change; watch the master they came from
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.watchers == nil {
		db.watchers = make(map[int]func(uint64, *Delta))
	}
	id := db.nextW
	db.nextW++
	db.watchers[id] = w
	return func() {
		db.mu.Lock()
		defer db.mu.Unlock()
		delete(db.watchers, id)
	}
}

// Put stores a relation under its own name.
func (db *Database) Put(r *Relation) { db.Relations[r.Name] = r }

// Get returns the named relation or nil.
func (db *Database) Get(name string) *Relation { return db.Relations[name] }

// MustGet returns the named relation or panics.
func (db *Database) MustGet(name string) *Relation {
	r := db.Relations[name]
	if r == nil {
		panic("data: missing relation " + name)
	}
	return r
}

// TotalBits returns Σ_j M_j, the database size in bits.
func (db *Database) TotalBits() int64 {
	var total int64
	for _, r := range db.Relations {
		total += r.Bits()
	}
	return total
}

// Names returns the relation names in sorted order.
func (db *Database) Names() []string {
	names := make([]string, 0, len(db.Relations))
	for n := range db.Relations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
