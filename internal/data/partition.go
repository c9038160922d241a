package data

// Skew-adaptive physical layout (heavy-hitter partitioned columns).
//
// A partitioned relation segregates the rows of its heavy hitters on one
// attribute into contiguous per-value runs at the top of the column arrays,
// with the remaining light rows densely packed below them:
//
//	[ light rows | value v₁ run | value v₂ run | ... ]
//	0         LightEnd                              Rows
//
// Routers that classify tuples by a single attribute (the §4.1 skew join on
// z, a multi-round stage on its join key, the §4.2 block router on a bound
// variable) can then resolve one routing decision per heavy run and bulk-ship
// whole column spans, instead of paying a map lookup per tuple; light rows
// keep the dense per-tuple path. See mpc.Route's CompileSpan for the routing
// side.
//
// The layout is maintained lazily: appends land past the covered prefix and
// leave the index valid (the uncovered tail routes per-tuple until the next
// rebuild), interior deletes below the covered prefix invalidate it, and
// Database.EnsurePartitioned rebuilds when the heavy set crossed the m/p
// threshold or the unpartitioned tail grew past a quarter of the relation.

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/par"
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
// the content sum untouched; only the tuple index is rebuilt. Callers
// synchronize like any other mutation (Database.EnsurePartitioned does this
// under the serving write lock).
func (r *Relation) BuildPartitions(attr int, threshold int64) *PartitionIndex {
	if attr < 0 || attr >= r.Arity {
		panic(fmt.Sprintf("data: %s: partition attribute %d outside arity %d", r.Name, attr, r.Arity))
	}
	r.buildPartitionsFrom(attr, threshold, r.heavySpans(attr, threshold))
	return r.part
}

// heavySpans counts attribute attr on a GroupIndex and returns the runs a
// layout built now would have: one per value occurring more than threshold
// times, in ascending value order, back to back up to the last row.
func (r *Relation) heavySpans(attr int, threshold int64) []PartitionSpan {
	var g GroupIndex
	g.Build(r, []int{attr})
	col := r.cols[attr]
	var spans []PartitionSpan
	heavyRows := 0
	for k := 0; k < g.Groups(); k++ {
		if n := g.Count(k); int64(n) > threshold {
			// End holds the run's length until the runs are laid out below.
			spans = append(spans, PartitionSpan{Value: col[g.Rep(k)], End: n})
			heavyRows += n
		}
	}
	slices.SortFunc(spans, func(a, b PartitionSpan) int { return cmp.Compare(a.Value, b.Value) })
	off := r.rows - heavyRows
	for i := range spans {
		spans[i].Start, spans[i].End = off, off+spans[i].End
		off = spans[i].End
	}
	return spans
}

// buildPartitionsFrom is BuildPartitions with the heavy runs already in hand
// (EnsurePartitioned computes them for its drift check first).
func (r *Relation) buildPartitionsFrom(attr int, threshold int64, spans []PartitionSpan) {
	idx := &PartitionIndex{Attr: attr, Threshold: threshold, Rows: r.rows, LightEnd: r.rows}
	if len(spans) == 0 {
		// Everything is light: the layout holds trivially, no reorder.
		r.part = idx
		return
	}
	idx.Spans, idx.LightEnd = spans, spans[0].Start
	idx.byValue = make(map[int64]int, len(spans))
	for si, sp := range spans {
		idx.byValue[sp.Value] = si
	}

	// Destination permutation: light rows keep their relative order in
	// [0, LightEnd), each heavy row goes to the next free slot of its run.
	out := make([]int, r.rows)
	next := make([]int, len(spans))
	for si := range spans {
		next[si] = spans[si].Start
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
	// The content sum is permutation-invariant; the tuple index maps rows
	// and must follow the permutation.
	if r.track.Load()&trackIndex != 0 {
		reindex(r.index, r)
	}
	r.part = idx
}

// gatherMinRows is the row count below which the per-column gather is not
// worth fanning out over the columns.
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
	if rows < gatherMinRows {
		for a := range cols {
			gather(a)
		}
		return
	}
	par.Each(len(cols), gather)
}

// partitionTailMax is the denominator of the lazy-rebuild tail rule: once
// more than rows/partitionTailMax rows sit past the covered prefix, the
// per-tuple tail is deemed worth a rebuild.
const partitionTailMax = 4

// EnsurePartitioned lazily maintains the heavy-partition layout of the named
// relation on attribute attr for a p-server round (heavy threshold m/p, at
// least one tuple). It is the serving entry point: cheap when the layout is
// current — one read lock and a generation check. After a mutation it
// counts the attribute once, under the write lock, and rebuilds only when
// the relation is unpartitioned for attr, the heavy set drifted across the
// threshold, or the unpartitioned tail outgrew a quarter of the relation.
// On snapshots it delegates to the mutable master (the snapshot itself is
// immutable; the rebuilt layout reaches the next epoch). It reports whether
// a rebuild happened.
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
	// With m < p the quotient floors to 0 and would make every value heavy;
	// a value that occurs once never is (as in stats.Collect).
	threshold := max(1, int64(r.rows)/int64(p))
	spans := r.heavySpans(attr, threshold)
	if idx := r.part; idx != nil && idx.Attr == attr && partitionCurrent(idx, spans, r.rows) {
		r.partCheckedGen = r.gen
		return false
	}
	r.buildPartitionsFrom(attr, threshold, spans)
	r.partCheckedGen = r.gen
	return true
}

// partitionCurrent reports whether an existing index still matches the
// relation: the heavy values of spans, the runs a rebuild would lay out, are
// exactly the index's, and the unpartitioned tail is small.
func partitionCurrent(idx *PartitionIndex, spans []PartitionSpan, rows int) bool {
	tail := rows - idx.Rows
	if tail < 0 || tail*partitionTailMax > rows {
		return false
	}
	return slices.EqualFunc(spans, idx.Spans, func(a, b PartitionSpan) bool { return a.Value == b.Value })
}
