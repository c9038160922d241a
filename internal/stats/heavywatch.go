package stats

import "repro/internal/data"

// HeavyWatch detects when a mutating workload grows a *new* heavy hitter
// past the §4.1 threshold after a plan froze its heavy sets. The skew-aware
// routers fix, at plan time, which values route through dedicated server
// grids; a value that later crosses m/p would keep routing light — still
// correct (equal values still meet), but with the per-server load guarantee
// of Theorems 4.2/4.9 silently void. Standing queries feed every delta
// operation through the watch and reseed from a fresh plan the moment a new
// heavy hitter appears, rather than keep routing with a stale grid.
//
// The watch maintains its *own* per-attribute frequency counts, seeded from
// the snapshot it was built on and advanced by Note — it never reads the
// database after construction, so standing-query advances consult it
// without holding any database lock while Apply mutates the master. They
// are the only counts in the engine kept op by op: relations count nothing,
// and the master may be ahead of the version the watch has consumed.
//
// The watch covers single attributes only — per-variable frequencies — so a
// value combination over ≥2 attributes crossing the threshold is not
// detected here; the drift-based replan heuristics remain the backstop for
// that (documented limitation).
type HeavyWatch struct {
	rels map[string]*relWatch
}

type relWatch struct {
	// threshold is the plan-time m/p. It is deliberately frozen with the
	// heavy sets: the plan's grids were sized against it, so crossing *it*
	// is what invalidates the plan, not crossing the drifting current m/p.
	threshold int64
	// heavy[a] holds the values of attribute a that the plan already
	// treats as heavy (routes through grids); only values outside it can
	// newly invalidate.
	heavy []map[int64]bool
	// counts[a] is the watch's own value → frequency map of attribute a,
	// advanced by Note so heaviness checks need no database access.
	counts []map[int64]int64
}

// NewHeavyWatch snapshots the heavy sets and frequency counts of the named
// relations of db at threshold m/p, counting each attribute through ps (the
// pass of the plan the watch guards has usually grouped it already). Build
// it from a consistent snapshot (data.Database.Snapshot) — the watch copies
// what it needs and never reads db, or ps, again.
func NewHeavyWatch(ps *Pass, db *data.Database, names []string, p int) *HeavyWatch {
	w := &HeavyWatch{rels: make(map[string]*relWatch, len(names))}
	for _, name := range names {
		r := db.Relations[name]
		if r == nil {
			continue
		}
		rw := &relWatch{
			threshold: max(1, int64(r.Size())/int64(p)), // as in Collect
			heavy:     make([]map[int64]bool, r.Arity),
			counts:    make([]map[int64]int64, r.Arity),
		}
		for a := 0; a < r.Arity; a++ {
			f := ps.Frequencies(r, []int{a})
			hs := make(map[int64]bool)
			counts := make(map[int64]int64, f.Distinct())
			f.Each(func(key []int64, c int64) {
				counts[key[0]] = c
				if c > rw.threshold {
					hs[key[0]] = true
				}
			})
			rw.heavy[a] = hs
			rw.counts[a] = counts
		}
		w.rels[name] = rw
	}
	return w
}

// Note folds one delta operation into the watch's maintained counts and
// reports whether it made some attribute value heavy that the plan treats
// as light: its maintained frequency now exceeds the plan-time threshold
// and it was not in the snapshot's heavy set. Deletes maintain counts and
// never report heavy. Every operation consumed by a standing advance must
// pass through Note exactly once, in order, so the counts track the
// database; O(arity) map probes per call, no locks. Relations the watch
// does not cover — not named at construction — never report heavy.
func (w *HeavyWatch) Note(rel string, vals []int64, insert bool) bool {
	rw := w.rels[rel]
	if rw == nil || len(vals) != len(rw.heavy) {
		return false
	}
	newHeavy := false
	for a, v := range vals {
		if insert {
			c := rw.counts[a][v] + 1
			rw.counts[a][v] = c
			if c > rw.threshold && !rw.heavy[a][v] {
				newHeavy = true
			}
		} else {
			if c := rw.counts[a][v] - 1; c <= 0 {
				delete(rw.counts[a], v)
			} else {
				rw.counts[a][v] = c
			}
		}
	}
	return newHeavy
}
