// Package join evaluates full conjunctive queries over in-memory relation
// instances. It provides the local computation that MPC servers run on
// their received fragments (a hash-based multiway join) and an independent
// nested-loop reference implementation used to verify every distributed
// algorithm's output in tests.
//
// The MPC model gives servers unlimited computational power, but the
// reproduction does not: local joins are most of a serving call, so Join
// runs on the columnar group-by kernel (data.GroupIndex), fills answers a
// match run at a time (see Rows), takes its working memory from one pool
// (see Scratch) so that it allocates only its answers, and guarantees three
// things. Order: a fixed sequence — atoms in planOrder's greedy order,
// bindings in the previous step's order, matching rows ascending — which,
// over fragments the comm engine delivers in (part, row) order, keeps every
// Result.Output and every sum over the answers reproducible. No duplicates
// on duplicate-free input. Arena aliasing: the answers of one call are
// slices of one backing array (see Join).
package join

import (
	"repro/internal/data"
	"repro/internal/query"
)

// Join returns all answers of q over the given relations (keyed by atom
// name) as tuples: Rows with one header per answer, for oracles, tests and
// callers that want []data.Tuple. A missing or empty relation yields no
// answers (nil). Input relations must be duplicate-free; then the output is
// duplicate-free too.
//
// The answers share one backing array (see data.Rows.AppendTuples): each
// tuple is a full slice expression over its own k values, so appending to
// one reallocates rather than overwriting its neighbour, and writing into
// one touches no input relation and no other call's output — but retaining
// a single answer retains the whole call's arena.
func Join(q *query.Query, rels map[string]*data.Relation) []data.Tuple {
	return Rows(q, rels, 0).AppendTuples(nil)
}

// Rows is the join kernel: the answers of q over rels as one flat row-major
// arena of q.NumVars() values per answer, in Join's order, with no
// per-answer header. The executor gathers these per server and writes the
// headers once, into the final output.
//
// Each atom costs a count pass, which sizes the next arena exactly, and a
// fill pass over the bindings' match runs. A run is written column by
// column: every variable bound before the atom is one strided constant fill
// down the run, every variable the atom binds fresh one strided gather from
// its column. No answer is copied from its binding.
//
// Everything but the returned arena is pooled scratch (see Scratch), so a
// warm call allocates once: the answers. The arena is the caller's.
//
// limit caps intermediate and final result sizes: whenever the binding set
// exceeds limit, it is truncated to the first limit bindings, so the output
// is an arbitrary subset of the true answers. limit ≤ 0 means unlimited.
// Lower-bound computations use this — a bound summed over a subset of the
// support is still a valid lower bound.
func Rows(q *query.Query, rels map[string]*data.Relation, limit int) data.Rows {
	s := GetScratch()
	defer PutScratch(s)
	k := q.NumVars()
	order := s.planOrder(q, rels)

	// arena holds n partial assignments to the k query variables, k values
	// each; bound tracks which variables are assigned (same for every
	// binding at a given step). Intermediate arenas ping-pong between the
	// scratch's two and are never cleared — only bound variables are read —
	// while the last step fills a fresh one, which is returned.
	arena, n := s.arena(0, k), 1
	bound := s.flags[len(order):] // planOrder's, all set by now
	clear(bound)
	s.split, s.probe = grow(s.split, k), grow(s.probe, k)
	split, probe, idx := s.split, s.probe, &s.Index // split: an atom's joinPos, then fresh
	for step, j := range order {
		atom := q.Atoms[j]
		rel := rels[atom.Name]
		if rel == nil || rel.Size() == 0 {
			return data.Rows{K: k}
		}
		joinPos := split[:0]
		for pos, v := range atom.Vars {
			if bound[v] {
				joinPos = append(joinPos, pos)
			}
		}
		fresh := joinPos[len(joinPos):]
		for pos, v := range atom.Vars {
			if !bound[v] {
				fresh = append(fresh, pos)
			}
		}
		// Group the relation by its key columns only — the payload columns
		// are not touched until a binding actually extends.
		idx.Build(rel, joinPos)

		// Count pass: group sizes are exact, so the next arena is allocated
		// once at its final size, limit included.
		groups, key := s.Groups(n), probe[:len(joinPos)]
		total := 0
		for b := 0; b < n; b++ {
			base := b * k
			for a, pos := range joinPos {
				key[a] = arena[base+atom.Vars[pos]]
			}
			g := idx.Lookup(key)
			groups[b] = int32(g)
			total += idx.Count(g)
			if limit > 0 && total >= limit {
				total, n = limit, b+1
				break
			}
		}
		if total == 0 {
			return data.Rows{K: k}
		}

		// Fill pass, one binding's match run (seg) at a time. A bound
		// variable repeats the binding's value down the run — a join variable
		// too, as Lookup verified the rows hold it — a fresh one is gathered
		// through the run's row ids, and an unbound one is not written. The
		// gather indexes seg by row: a cursor stepped by k spills to the
		// stack here under Go 1.24 (≈ 15 % on BenchmarkLocalJoinZipfRows).
		cols := rel.Columns()
		var next []int64
		if step == len(order)-1 {
			next = make([]int64, total*k)
		} else {
			next = s.arena((step+1)%2, total*k)
		}
		out := 0
		for b := 0; b < n; b++ {
			rows := idx.Rows(int(groups[b]))
			if len(rows) > total-out {
				rows = rows[:total-out]
			}
			if len(rows) == 0 {
				continue
			}
			seg := next[out*k : (out+len(rows))*k]
			src := arena[b*k : (b+1)*k]
			for v, isBound := range bound {
				if !isBound {
					continue
				}
				c := src[v]
				for o := v; o < len(seg); o += k {
					seg[o] = c
				}
			}
			for _, pos := range fresh {
				col, o := cols[pos], atom.Vars[pos]
				for i, r := range rows {
					seg[o+i*k] = col[r]
				}
			}
			out += len(rows)
		}
		arena, n = next, total
		for _, v := range atom.Vars {
			bound[v] = true
		}
	}
	return data.Rows{K: k, N: n, Vals: arena}
}

// planOrder returns a greedy atom order: start from the smallest relation,
// then repeatedly take the atom sharing the most variables with the bound
// set (ties to the smaller relation). Connected queries thus avoid
// intermediate cartesian blowups where possible. The order aliases s.
func (s *Scratch) planOrder(q *query.Query, rels map[string]*data.Relation) []int {
	l := q.NumAtoms()
	size := func(j int) int {
		if r := rels[q.Atoms[j].Name]; r != nil {
			return r.Size()
		}
		return 0
	}
	s.flags = grow(s.flags, l+q.NumVars())
	clear(s.flags)
	used, bound := s.flags[:l], s.flags[l:]
	s.order = grow(s.order, l)
	order := s.order[:0]
	for len(order) < l {
		best, bestShared, bestSize := -1, -1, 0
		for j := 0; j < l; j++ {
			if used[j] {
				continue
			}
			shared := 0
			for _, v := range q.Atoms[j].Vars {
				if bound[v] {
					shared++
				}
			}
			if best == -1 || shared > bestShared ||
				(shared == bestShared && size(j) < bestSize) {
				best, bestShared, bestSize = j, shared, size(j)
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range q.Atoms[best].Vars {
			bound[v] = true
		}
	}
	return order
}

// NestedLoop is an independent reference join: plain backtracking over
// atoms with no indexing. Exponential in the worst case — use on small
// inputs (tests) only.
func NestedLoop(q *query.Query, rels map[string]*data.Relation) []data.Tuple {
	k := q.NumVars()
	assignment := make(data.Tuple, k)
	bound := make([]bool, k)
	var out []data.Tuple

	var rec func(ai int)
	rec = func(ai int) {
		if ai == q.NumAtoms() {
			out = append(out, append(data.Tuple(nil), assignment...))
			return
		}
		atom := q.Atoms[ai]
		rel := rels[atom.Name]
		if rel == nil {
			return
		}
		rel.Each(func(_ int, t data.Tuple) bool {
			var newly []int
			ok := true
			for pos, v := range atom.Vars {
				if bound[v] {
					if assignment[v] != t[pos] {
						ok = false
						break
					}
				} else {
					bound[v] = true
					assignment[v] = t[pos]
					newly = append(newly, v)
				}
			}
			if ok {
				rec(ai + 1)
			}
			for _, v := range newly {
				bound[v] = false
			}
			return true
		})
	}
	rec(0)
	return out
}

// FromDatabase adapts a Database to the map form Join expects.
func FromDatabase(db *data.Database) map[string]*data.Relation {
	return db.Relations
}

// EqualTupleSets reports whether two tuple collections are equal as
// multisets. The tuples are of one width, as the answers of one query are.
func EqualTupleSets(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	var seen data.KeyTable
	if len(a) > 0 {
		seen.Reset(len(a[0]))
	}
	var counts []int // occurrences in a not yet matched in b, per entry
	for _, t := range a {
		e, added := seen.Insert(t)
		if added {
			counts = append(counts, 0)
		}
		counts[e]++
	}
	for _, t := range b {
		e := -1
		if len(t) == seen.Width() {
			e = seen.Lookup(t)
		}
		if e < 0 || counts[e] == 0 {
			return false
		}
		counts[e]--
	}
	return true
}

// Dedup removes duplicate tuples, preserving first occurrence order. The
// tuples are of one width, as the answers of one query are.
func Dedup(ts []data.Tuple) []data.Tuple {
	var seen data.KeyTable
	if len(ts) > 0 {
		seen.Reset(len(ts[0]))
	}
	out := ts[:0]
	for _, t := range ts {
		if _, added := seen.Insert(t); added {
			out = append(out, t)
		}
	}
	return out
}
