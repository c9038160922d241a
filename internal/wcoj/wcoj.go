// Package wcoj implements a generic worst-case optimal join in the style
// of Ngo–Porat–Ré–Rudra ("Worst-case optimal join algorithms", PODS 2012),
// cited as [9] by Beame–Koutris–Suciu: §1 notes that the *sequential*
// complexity of a query is captured by its fractional edge cover (the AGM
// bound), the counterpart of this paper's result that *parallel* one-round
// complexity is captured by the fractional edge packing.
//
// The algorithm proceeds variable by variable: at each level it intersects
// the candidate values of the current variable across all atoms that
// contain it (seeding from the smallest candidate set), then recurses.
// Its running time is within a log factor of the AGM bound — unlike
// binary join plans, which can materialize intermediates asymptotically
// larger than the output (the triangle query being the classic example).
package wcoj

import (
	"sort"

	"repro/internal/data"
	"repro/internal/query"
)

// Join evaluates q over rels with the generic worst-case optimal
// algorithm, returning all answers in q's head order. Input relations must
// be duplicate-free.
func Join(q *query.Query, rels map[string]*data.Relation) []data.Tuple {
	k := q.NumVars()
	// Atoms with their relations; empty/missing → empty result.
	type atomState struct {
		atom query.Atom
		rel  *data.Relation
		// varPos[v] = column of variable v in the atom, or -1.
		varPos []int
		// candidates for the current partial assignment, as row indices.
		rows []int
		// For atoms holding the last variable: the relation grouped by all
		// of the atom's variables (ascending), probed at the deepest level.
		vars   []int
		tuples data.GroupIndex
	}
	states := make([]*atomState, q.NumAtoms())
	for j, a := range q.Atoms {
		rel := rels[a.Name]
		if rel == nil || rel.Size() == 0 {
			return nil
		}
		vp := make([]int, k)
		for i := range vp {
			vp[i] = -1
		}
		for pos, v := range a.Vars {
			vp[v] = pos
		}
		rows := make([]int, rel.Size())
		for i := range rows {
			rows[i] = i
		}
		st := &atomState{atom: a, rel: rel, varPos: vp, rows: rows}
		if k > 0 && vp[k-1] >= 0 {
			var cols []int
			for v, pos := range vp {
				if pos >= 0 {
					st.vars = append(st.vars, v)
					cols = append(cols, pos)
				}
			}
			st.tuples.Build(rel, cols)
		}
		states[j] = st
	}

	assignment := make(data.Tuple, k)
	probe := make([]int64, 0, k)
	var out []data.Tuple

	// Precompute, per atom and level, the grouping of the FULL relation by
	// that level's value. When an atom reaches a level unrestricted (its
	// rows are still the whole relation), the recursion reuses this map
	// instead of rebuilding it — without this, atoms first touched deep in
	// the recursion are regrouped at every node, costing a quadratic
	// factor on the AGM-hard instances the algorithm exists to handle.
	fullGroups := make([]map[int]map[int64][]int, len(states))
	for si, st := range states {
		fullGroups[si] = make(map[int]map[int64][]int)
		for level := 0; level < k; level++ {
			p := st.varPos[level]
			if p < 0 {
				continue
			}
			m := make(map[int64][]int)
			for i, v := range st.rel.Column(p) { // single-column scan
				m[v] = append(m[v], i)
			}
			fullGroups[si][level] = m
		}
	}
	stateIndex := make(map[*atomState]int, len(states))
	for si, st := range states {
		stateIndex[st] = si
	}

	var rec func(level int)
	rec = func(level int) {
		if level == k {
			out = append(out, append(data.Tuple(nil), assignment...))
			return
		}
		// Atoms containing this variable.
		var touching []*atomState
		for _, st := range states {
			if st.varPos[level] >= 0 {
				touching = append(touching, st)
			}
		}
		if len(touching) == 0 {
			// Variable not in any atom cannot happen on validated queries.
			panic("wcoj: uncovered variable")
		}
		// The smallest candidate list is the pivot: only its rows are
		// grouped by value at this node. Every other atom is checked by
		// intersecting its (sorted) restricted rows with the prebuilt full
		// grouping — never by regrouping its whole restriction, which on
		// AGM-hard instances is what used to reintroduce a quadratic
		// factor per node.
		sort.Slice(touching, func(a, b int) bool {
			return len(touching[a].rows) < len(touching[b].rows)
		})
		pivot := touching[0]
		var pivotGroup map[int64][]int
		if len(pivot.rows) == pivot.rel.Size() {
			pivotGroup = fullGroups[stateIndex[pivot]][level]
		} else {
			pivotGroup = make(map[int64][]int, len(pivot.rows))
			col := pivot.rel.Column(pivot.varPos[level])
			for _, r := range pivot.rows {
				pivotGroup[col[r]] = append(pivotGroup[col[r]], r)
			}
		}
		values := make([]int64, 0, len(pivotGroup))
		for v := range pivotGroup {
			values = append(values, v)
		}
		sort.Slice(values, func(a, b int) bool { return values[a] < values[b] })

		last := level == k-1
		saved := make([][]int, len(touching))
		newRows := make([][]int, len(touching))
		for _, v := range values {
			ok := true
			assignment[level] = v
			newRows[0] = pivotGroup[v]
			for ti := 1; ti < len(touching); ti++ {
				st := touching[ti]
				grp := fullGroups[stateIndex[st]][level][v]
				if grp == nil {
					ok = false
					break
				}
				if len(st.rows) == st.rel.Size() {
					newRows[ti] = grp
					continue
				}
				if last {
					// The deepest level never reads the restriction, and
					// every variable of the atom is bound by now: one probe
					// for the bound tuple replaces intersecting the two row
					// lists, which on the double star is linear per node and
					// quadratic in all.
					probe = probe[:0]
					for _, u := range st.vars {
						probe = append(probe, assignment[u])
					}
					if st.tuples.Lookup(probe) < 0 {
						ok = false
						break
					}
					newRows[ti] = nil
					continue
				}
				inter := sortedIntersect(st.rows, grp)
				if len(inter) == 0 {
					ok = false
					break
				}
				newRows[ti] = inter
			}
			if !ok {
				continue
			}
			for ti, st := range touching {
				saved[ti] = st.rows
				st.rows = newRows[ti]
			}
			rec(level + 1)
			for ti, st := range touching {
				st.rows = saved[ti]
			}
		}
	}
	rec(0)
	return out
}

// sortedIntersect intersects two ascending row-index lists by walking the
// smaller and binary-searching the larger. Row lists stay sorted through
// the recursion (initial enumeration, groupings, and intersections all
// preserve ascending order), so the result is sorted too.
func sortedIntersect(a, b []int) []int {
	if len(a) > len(b) {
		a, b = b, a
	}
	var out []int
	for _, x := range a {
		if i := sort.SearchInts(b, x); i < len(b) && b[i] == x {
			out = append(out, x)
		}
	}
	return out
}
