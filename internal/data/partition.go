package data

// Skew-adaptive physical layout (heavy-hitter partitioned columns).
//
// A partitioned relation segregates the rows of its maintained heavy
// hitters on one attribute into contiguous per-value runs at the top of the
// column arrays, with the remaining light rows densely packed below them:
//
//	[ light rows | value v₁ run | value v₂ run | ... ]
//	0         LightEnd                              Rows
//
// Routers that classify tuples by a single attribute (the §4.1 skew join on
// z, a multi-round stage on its join key, the §4.2 block router on a bound
// variable) can then resolve one routing decision per heavy run and bulk-ship
// whole column spans, instead of paying a map lookup per tuple; light rows
// keep the dense per-tuple path. See mpc.SpanRouter for the routing side.
//
// The layout is maintained lazily: appends land past the covered prefix and
// leave the index valid (the uncovered tail routes per-tuple until the next
// rebuild), interior deletes below the covered prefix invalidate it, and
// Database.EnsurePartitioned rebuilds when the heavy set crossed the m/p
// threshold or the unpartitioned tail grew past a quarter of the relation.

import (
	"fmt"
	"sort"
)

// PartitionSpan is one contiguous run of rows sharing a heavy value on the
// partition attribute: rows [Start, End) all carry Value there.
type PartitionSpan struct {
	Value      int64
	Start, End int
}

// PartitionIndex describes the heavy-partition layout of a relation on one
// attribute. It is immutable once built: mutators replace or drop the whole
// index, so snapshot views can share the pointer with the master.
type PartitionIndex struct {
	// Attr is the partition attribute.
	Attr int
	// Threshold is the heavy-hitter cutoff the layout was built with
	// (a value is heavy when its count exceeds it — the paper's m/p).
	Threshold int64
	// Rows is the covered prefix: rows [0, Rows) obey the layout. Rows
	// appended after the build land at [Rows, Size()) in arrival order and
	// must be routed per-tuple.
	Rows int
	// LightEnd bounds the light region: rows [0, LightEnd) carry no heavy
	// value on Attr. Spans cover [LightEnd, Rows).
	LightEnd int
	// Spans lists the heavy runs in ascending Start (and ascending Value)
	// order, back to back: Spans[0].Start == LightEnd and
	// Spans[len-1].End == Rows.
	Spans []PartitionSpan

	byValue map[int64]int
}

// Span returns the heavy run of value v, if v was heavy at build time.
func (idx *PartitionIndex) Span(v int64) (PartitionSpan, bool) {
	si, ok := idx.byValue[v]
	if !ok {
		return PartitionSpan{}, false
	}
	return idx.Spans[si], true
}

// Partitions returns the relation's current heavy-partition index, or nil
// when the relation is unpartitioned (never built, or invalidated by an
// interior delete or a Sort). The index is immutable; on snapshot views it
// describes the view's frozen rows permanently.
func (r *Relation) Partitions() *PartitionIndex { return r.part }

// BuildPartitions physically reorders the relation into the heavy-partition
// layout on attribute attr — heavy values are those whose frequency exceeds
// threshold — and installs the resulting index. The reorder gathers every
// column onto fresh backing (published snapshot views keep their arrays),
// preserves nothing about row order beyond the layout contract, and leaves
// content-derived state (content sum, frequency maps) untouched; only the
// tuple index is rebuilt. Callers synchronize like any other mutation
// (Database.EnsurePartitioned does this under the serving write lock).
func (r *Relation) BuildPartitions(attr int, threshold int64) *PartitionIndex {
	if attr < 0 || attr >= r.Arity {
		panic(fmt.Sprintf("data: %s: partition attribute %d outside arity %d", r.Name, attr, r.Arity))
	}
	counts := r.AttrCounts(attr)
	if counts == nil {
		counts = make(map[int64]int64)
		for _, v := range r.cols[attr][:r.rows] {
			counts[v]++
		}
	}
	r.buildPartitionsFrom(attr, threshold, counts)
	return r.part
}

// buildPartitionsFrom is BuildPartitions with the attribute counts already
// in hand (EnsurePartitioned computes them for its drift check first).
func (r *Relation) buildPartitionsFrom(attr int, threshold int64, counts map[int64]int64) {
	heavy := make([]int64, 0, 16)
	for v, c := range counts {
		if c > threshold {
			heavy = append(heavy, v)
		}
	}
	sort.Slice(heavy, func(a, b int) bool { return heavy[a] < heavy[b] })

	idx := &PartitionIndex{Attr: attr, Threshold: threshold, Rows: r.rows}
	if len(heavy) == 0 {
		// Everything is light: the layout holds trivially, no reorder.
		idx.LightEnd = r.rows
		r.part = idx
		return
	}

	idx.byValue = make(map[int64]int, len(heavy))
	idx.Spans = make([]PartitionSpan, len(heavy))
	heavyRows := 0
	for si, v := range heavy {
		idx.byValue[v] = si
		heavyRows += int(counts[v])
	}
	idx.LightEnd = r.rows - heavyRows
	off := idx.LightEnd
	for si, v := range heavy {
		idx.Spans[si] = PartitionSpan{Value: v, Start: off, End: off + int(counts[v])}
		off = idx.Spans[si].End
	}

	// Destination permutation: light rows keep their relative order in
	// [0, LightEnd), each heavy row goes to the next free slot of its run.
	out := make([]int, r.rows)
	next := make([]int, len(heavy))
	for si := range idx.Spans {
		next[si] = idx.Spans[si].Start
	}
	lightNext := 0
	for i, v := range r.cols[attr][:r.rows] {
		if si, ok := idx.byValue[v]; ok {
			out[i] = next[si]
			next[si]++
		} else {
			out[i] = lightNext
			lightNext++
		}
	}

	// Gather every column onto fresh backing (columns are independent, so
	// wide relations gather in parallel). Published snapshot views keep the
	// old arrays untouched, exactly as in Sort.
	gatherColumns(r.cols, r.rows, out)
	r.frozen = 0
	r.gen++
	// Content sum and frequency maps are permutation-invariant; the tuple
	// index maps rows and must follow the permutation.
	if r.track.Load()&trackStats != 0 {
		reindex(r.index, r)
	}
	r.part = idx
}

// gatherMinRows is the row count below which the per-column gather is not
// worth a goroutine per column.
const gatherMinRows = 1 << 15

// gatherColumns replaces each of the first `rows` entries of every column
// with fresh backing permuted by out (new[out[i]] = old[i]).
func gatherColumns(cols [][]int64, rows int, out []int) {
	gather := func(a int) {
		nc := make([]int64, rows)
		oc := cols[a][:rows]
		for i, o := range out {
			nc[o] = oc[i]
		}
		cols[a] = nc
	}
	if rows < gatherMinRows || len(cols) < 2 {
		for a := range cols {
			gather(a)
		}
		return
	}
	done := make(chan int, len(cols))
	for a := range cols {
		go func(a int) {
			gather(a)
			done <- a
		}(a)
	}
	for range cols {
		<-done
	}
}

// partitionTailMax is the denominator of the lazy-rebuild tail rule: once
// more than rows/partitionTailMax rows sit past the covered prefix, the
// per-tuple tail is deemed worth a rebuild.
const partitionTailMax = 4

// EnsurePartitioned lazily maintains the heavy-partition layout of the named
// relation on attribute attr for a p-server round (heavy threshold m/p). It
// is the serving entry point: cheap when the layout is current — one read
// lock and a generation check — and rebuilding under the write lock only
// when the relation is unpartitioned for attr, the maintained heavy set
// drifted across the threshold, or the unpartitioned tail outgrew a quarter
// of the relation. On snapshots it delegates to the mutable master (the
// snapshot itself is immutable; the rebuilt layout reaches the next epoch).
// It reports whether a rebuild happened.
func (db *Database) EnsurePartitioned(name string, attr, p int) bool {
	db = db.Master()
	if p < 1 {
		panic(fmt.Sprintf("data: EnsurePartitioned: p=%d", p))
	}
	db.mu.RLock()
	r := db.Relations[name]
	if r == nil {
		db.mu.RUnlock()
		return false
	}
	if attr < 0 || attr >= r.Arity {
		db.mu.RUnlock()
		panic(fmt.Sprintf("data: %s: partition attribute %d outside arity %d", name, attr, r.Arity))
	}
	current := r.part != nil && r.part.Attr == attr && r.partCheckedGen == r.gen
	db.mu.RUnlock()
	if current {
		return false
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	r = db.Relations[name]
	if r == nil {
		return false
	}
	if r.part != nil && r.part.Attr == attr && r.partCheckedGen == r.gen {
		return false
	}
	threshold := int64(r.rows) / int64(p)
	counts := r.AttrCounts(attr)
	if counts == nil {
		counts = make(map[int64]int64)
		for _, v := range r.cols[attr][:r.rows] {
			counts[v]++
		}
	}
	if idx := r.part; idx != nil && idx.Attr == attr && partitionCurrent(idx, counts, threshold, r.rows) {
		r.partCheckedGen = r.gen
		return false
	}
	r.buildPartitionsFrom(attr, threshold, counts)
	r.partCheckedGen = r.gen
	return true
}

// partitionCurrent reports whether an existing index still matches the
// relation: the heavy set under the new threshold is exactly the span set,
// and the unpartitioned tail is small.
func partitionCurrent(idx *PartitionIndex, counts map[int64]int64, threshold int64, rows int) bool {
	tail := rows - idx.Rows
	if tail < 0 || tail*partitionTailMax > rows {
		return false
	}
	heavyNow := 0
	for v, c := range counts {
		if c > threshold {
			heavyNow++
			if _, ok := idx.byValue[v]; !ok {
				return false
			}
		}
	}
	return heavyNow == len(idx.Spans)
}
