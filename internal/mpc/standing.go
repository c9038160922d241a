// Standing-query storage: the per-server resident state an incremental
// (delta-routed) evaluation maintains between advances.
//
// A one-round plan's communication phase partitions every base relation
// across virtual servers; the local phase joins each server's fragments.
// A standing query freezes that layout and keeps, per virtual server, one
// flat columnar fragment per base relation, indexed exactly the way the
// local join will probe it (Resident), plus one global counted output
// (Counted) whose per-answer derivation counts make deletes retract
// exactly: an answer is live while its count is positive, and routing a
// delete through the same deterministic router removes precisely the
// derivations its insert created. Both sit on data.KeyTable, so no write
// path hashes a boxed key.
package mpc

import (
	"fmt"
	"slices"

	"repro/internal/data"
)

// ResidentIndex names one hash index a standing query maintains: the
// fragment of relation Rel indexed by the (ascending) attribute positions
// Pos. An empty Pos indexes the whole fragment under the empty key — the
// probe shares no bound variables (disconnected queries).
type ResidentIndex struct {
	Rel string
	Pos []int
	rel int // Rel's position in the layout's relation list
}

// ResidentLayout is the set of indexes every server of one standing query
// maintains, deduplicated: two probes of the same relation on the same
// position set share an index. Build it once per standing query with
// AddIndex and share it (read-only) across all servers.
type ResidentLayout struct {
	Kinds []ResidentIndex
	// rels lists the indexed relations in first-AddIndex order; kindsOf[i]
	// holds the kind IDs maintained over rels[i].
	rels    []string
	kindsOf [][]int
}

// AddIndex interns the index (rel, pos) and returns its kind ID. pos is
// copied and sorted ascending (the canonical probe order).
func (l *ResidentLayout) AddIndex(rel string, pos []int) int {
	sorted := slices.Clone(pos)
	slices.Sort(sorted)
	for id, k := range l.Kinds {
		if k.Rel == rel && slices.Equal(k.Pos, sorted) {
			return id
		}
	}
	ri := l.Rel(rel)
	if ri < 0 {
		ri = len(l.rels)
		l.rels = append(l.rels, rel)
		l.kindsOf = append(l.kindsOf, nil)
	}
	id := len(l.Kinds)
	l.Kinds = append(l.Kinds, ResidentIndex{Rel: rel, Pos: sorted, rel: ri})
	l.kindsOf[ri] = append(l.kindsOf[ri], id)
	return id
}

// Rel returns the layout's number for relation name — the rel argument of
// Resident.Insert and Delete — or -1 when no index covers it.
func (l *ResidentLayout) Rel(name string) int {
	for i, n := range l.rels {
		if n == name {
			return i
		}
	}
	return -1
}

// Resident is one virtual server's resident base-side state: per indexed
// relation a flat columnar fragment, and per index kind a data.KeyTable over
// the kind's positions whose entries head doubly linked chains of the rows
// carrying each key. Rows are copied in, so resident state never aliases a
// mutating relation.
type Resident struct {
	layout *ResidentLayout
	frags  []fragment     // per layout relation
	kinds  []residentKind // per layout kind
	key    []int64        // probe-key scratch
	// n counts stored rows over all fragments, so Tuples is O(1) — Advance
	// reads it on every call and must stay O(delta).
	n int64
}

// fragment is one relation's resident rows, column-wise.
type fragment struct {
	cols [][]int64
	rows int
}

// residentKind indexes one fragment by a kind's positions.
type residentKind struct {
	keys data.KeyTable
	head []int32 // per keys entry: the first row of its chain
	next []int32 // per fragment row: the next row of its chain, or -1
	// prev is per fragment row the previous row of its chain, or -(e+1) for
	// the row heading entry e's chain — so a row finds its entry without
	// hashing.
	prev []int32
}

// NewResident returns an empty per-server store for the layout.
func NewResident(layout *ResidentLayout) *Resident {
	r := &Resident{
		layout: layout,
		frags:  make([]fragment, len(layout.rels)),
		kinds:  make([]residentKind, len(layout.Kinds)),
	}
	for id, k := range layout.Kinds {
		r.kinds[id].keys.Reset(len(k.Pos))
	}
	return r
}

// project gathers t's values at kind id's positions into the key scratch.
func (r *Resident) project(id int, t []int64) []int64 {
	r.key = r.key[:0]
	for _, p := range r.layout.Kinds[id].Pos {
		r.key = append(r.key, t[p])
	}
	return r.key
}

// Insert appends one tuple to relation rel's fragment (rel numbered by
// ResidentLayout.Rel; -1 is a no-op) and links it into every index over
// the relation.
func (r *Resident) Insert(rel int, t []int64) {
	if rel < 0 {
		return
	}
	f := &r.frags[rel]
	if f.cols == nil {
		f.cols = make([][]int64, len(t))
	}
	for a, v := range t {
		f.cols[a] = append(f.cols[a], v)
	}
	row := int32(f.rows)
	f.rows++
	r.n++
	for _, id := range r.layout.kindsOf[rel] {
		k := &r.kinds[id]
		e, added := k.keys.Insert(r.project(id, t))
		if added {
			k.head = append(k.head, -1)
		}
		first := k.head[e]
		if first >= 0 {
			k.prev[first] = row
		}
		k.next = append(k.next, first)
		k.prev = append(k.prev, -int32(e)-1)
		k.head[e] = row
	}
}

// Delete removes t from relation rel's fragment, reporting whether it was
// present (fragments are duplicate-free, so the occurrence is unique). The
// fragment's last row moves into the freed row, in the columns and in every
// index. A false return means the resident state is inconsistent with the
// op stream — the caller should rebuild from scratch. A rel of -1 (a
// relation no index covers) is a no-op that reports true.
func (r *Resident) Delete(rel int, t []int64) bool {
	if rel < 0 {
		return true
	}
	f := &r.frags[rel]
	kinds := r.layout.kindsOf[rel]
	// Find t's row along its chain in the most selective index.
	search := kinds[0]
	for _, id := range kinds[1:] {
		if len(r.layout.Kinds[id].Pos) > len(r.layout.Kinds[search].Pos) {
			search = id
		}
	}
	k := &r.kinds[search]
	row := int32(-1)
	if e := k.keys.Lookup(r.project(search, t)); e >= 0 {
		for row = k.head[e]; row >= 0 && !f.holds(row, t); row = k.next[row] {
		}
	}
	if row < 0 {
		return false
	}
	last := int32(f.rows - 1)
	for _, id := range kinds {
		k := &r.kinds[id]
		k.unlink(row)
		if row != last {
			k.move(last, row)
		}
		k.next, k.prev = k.next[:last], k.prev[:last]
	}
	for a, col := range f.cols {
		col[row] = col[last]
		f.cols[a] = col[:last]
	}
	f.rows--
	r.n--
	return true
}

// holds reports whether fragment row i is the tuple t.
func (f *fragment) holds(i int32, t []int64) bool {
	for a, col := range f.cols {
		if col[i] != t[a] {
			return false
		}
	}
	return true
}

// unlink takes row out of its chain, dropping the chain's key when row was
// its only row.
func (k *residentKind) unlink(row int32) {
	p, n := k.prev[row], k.next[row]
	if n >= 0 {
		k.prev[n] = p // a new chain head inherits the entry marker
	}
	if p >= 0 {
		k.next[p] = n
		return
	}
	e := -p - 1
	if n >= 0 {
		k.head[e] = n
		return
	}
	moved := k.keys.Delete(int(e))
	k.head[e] = k.head[moved]
	k.head = k.head[:moved]
	if int(e) != moved {
		k.prev[k.head[e]] = -e - 1
	}
}

// move relinks row from (still linked) under the row number to.
func (k *residentKind) move(from, to int32) {
	p, n := k.prev[from], k.next[from]
	k.prev[to], k.next[to] = p, n
	if n >= 0 {
		k.prev[n] = to
	}
	if p >= 0 {
		k.next[p] = to
	} else {
		k.head[-p-1] = to
	}
}

// Probe returns the first fragment row of kind's relation whose values at
// the kind's positions equal key, or -1; Next walks the rest. Row values
// are read through Cols. Rows are valid until the next Insert or Delete.
//
//skewlint:noalloc
func (r *Resident) Probe(kind int, key []int64) int32 {
	k := &r.kinds[kind]
	e := k.keys.Lookup(key)
	if e < 0 {
		return -1
	}
	return k.head[e]
}

// Next returns the row after row in its Probe chain, or -1.
func (r *Resident) Next(kind int, row int32) int32 { return r.kinds[kind].next[row] }

// Cols returns the columns of kind's relation fragment (read-only, valid
// until the next Insert or Delete).
func (r *Resident) Cols(kind int) [][]int64 {
	return r.frags[r.layout.Kinds[kind].rel].cols
}

// Tuples returns the number of stored rows across the server's fragments.
func (r *Resident) Tuples() int64 { return r.n }

// Counted is a retraction-aware output fragment: a multiset of answers with
// per-answer derivation counts. Counting-based maintenance makes deletes
// exact: an advance that removes the last derivation of an answer retracts
// it, and overlapping derivations (the §4.2 bin combinations produce the
// same answer in several combinations) retire one at a time without ever
// retracting early.
//
// Answers are the rows of a data.KeyTable, whose flat arena is the answer
// store, beside a signed count column. A row whose count falls to zero
// stays (not live) until Retire, so row numbers are stable while a batch
// is in flight; Retire then swap-removes it.
type Counted struct {
	rows  data.KeyTable
	count []int64
}

// NewCounted returns an empty counted fragment of width-value answers.
func NewCounted(width int) *Counted {
	c := new(Counted)
	c.rows.Reset(width)
	return c
}

// Add folds n (positive or negative) derivations of answer t into the
// fragment and returns t's row. A negative count is an inconsistency — the
// caller routed a retraction that was never derived — and panics, because
// continuing would silently corrupt the standing result.
func (c *Counted) Add(t []int64, n int64) int {
	row, added := c.rows.Insert(t)
	if added {
		c.count = append(c.count, 0)
	}
	now := c.count[row] + n
	if now < 0 {
		panic(fmt.Sprintf("mpc: counted fragment: %v retracted below zero (%d%+d)", t, c.count[row], n))
	}
	c.count[row] = now
	return row
}

// Count returns row's derivation count; the answer is live while it is
// positive.
func (c *Counted) Count(row int) int64 { return c.count[row] }

// Retire removes every row of rows whose count is zero, moving the last
// rows into the holes. rows must be distinct; Retire reorders it. Every
// other row number may change.
func (c *Counted) Retire(rows []int32) {
	dead := rows[:0]
	for _, row := range rows {
		if c.count[row] == 0 {
			dead = append(dead, row)
		}
	}
	// Highest first: the last row, moved into each hole, is then never a
	// row still to retire.
	slices.Sort(dead)
	for i := len(dead) - 1; i >= 0; i-- {
		row := dead[i]
		moved := c.rows.Delete(int(row))
		c.count[row] = c.count[moved]
		c.count = c.count[:moved]
	}
}

// Copy returns the answers of rows as caller-owned tuples cut from one
// fresh arena; nil when rows is empty.
func (c *Counted) Copy(rows []int32) []data.Tuple {
	out := data.Rows{K: c.rows.Width(), N: len(rows), Vals: make([]int64, 0, len(rows)*c.rows.Width())}
	for _, row := range rows {
		out.Vals = append(out.Vals, c.rows.Key(int(row))...)
	}
	return out.AppendTuples(nil)
}

// Tuples returns the live answers as caller-owned tuples, in row order.
func (c *Counted) Tuples() []data.Tuple { return c.Minus(nil) }

// Minus returns the answers live in c but not in o (nil: all of c's) as
// caller-owned tuples, in c's row order.
func (c *Counted) Minus(o *Counted) []data.Tuple {
	var rows []int32
	for row, n := range c.count {
		if n == 0 {
			continue
		}
		if o != nil {
			if orow := o.rows.Lookup(c.rows.Key(row)); orow >= 0 && o.count[orow] > 0 {
				continue
			}
		}
		rows = append(rows, int32(row))
	}
	return c.Copy(rows)
}
