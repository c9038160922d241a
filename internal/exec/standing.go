package exec

import (
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
)

// Standing is the incremental counterpart of Execute for a one-round plan: it
// executes the plan's communication and local phases once to seed resident
// per-server state, then maintains the result under single-tuple deltas.
// ApplyOp routes one inserted or deleted tuple through the plan's (frozen,
// deterministic) router to exactly the virtual servers a full execution
// would deliver it to — the tuple is copied into its atom's one-row staging
// relation, so the router reads it in place exactly as it reads a row of a
// round — joins it against each server's resident fragments
// of the *other* atoms, and folds the resulting derivations — positive for
// inserts, negative for deletes — into a counted output fragment. An
// advance therefore costs O(|delta| · matched derivations) instead of the
// full-database routing a cache-hit Execute pays.
//
// Correctness rests on three invariants of this repository's plans: every
// strategy's local phase is the natural join of the server's received
// fragments (so {t} ⋈ residents is exactly the server's output delta);
// queries have no self-joins (so a delta tuple never joins with itself and
// the remaining atoms' fragments are unaffected by its own insertion); and
// routers are frozen at plan time (so a delete revisits precisely the
// servers its insert populated, making counting-based retraction exact).
//
// A Standing is not safe for concurrent use; callers serialize ApplyOp and
// Flush (core.StandingQuery holds a handle mutex).
type Standing struct {
	plan *PhysicalPlan
	q    *query.Query

	layout    *mpc.ResidentLayout
	residents []*mpc.Resident
	atoms     map[string]*deltaAtom
	counted   *mpc.Counted

	// A batch (the ops between two Flushes) records, per counted row it
	// touches, the row's count before the batch — start, indexed by row, -1
	// for untouched rows — and the touched rows in first-touch order; Flush
	// compares each start with the row's count now, so an answer inserted
	// and deleted within one batch reports neither added nor removed.
	start   []int64
	touched []int32

	// Scratch reused across ops: routing destinations, the join's flat
	// binding arenas (q.NumVars() values per binding), a probe key, and
	// Flush's added and removed rows.
	dst            []int
	cur, next      []int64
	probe          []int64
	added, removed []int32

	routedTuples int64
	routedBits   int64
}

// deltaAtom is the compiled per-relation delta program: when a tuple of
// this atom's relation changes, steps extends it through the remaining
// atoms in a fixed greedy order, probing one resident index per step.
type deltaAtom struct {
	atom query.Atom
	rel  int   // the relation's number in the resident layout (-1: unindexed)
	bits int64 // BitsPerTuple of the relation, for load accounting
	// stage is a one-row relation named and shaped like the atom's, whose
	// columns alias row: ApplyOp refills row in place and routes stage's
	// row 0, so routing an op allocates nothing.
	stage *data.Relation
	row   []int64
	// steps covers every other atom exactly once.
	steps []deltaStep
}

type deltaStep struct {
	// kind is the resident index to probe (its positions ascending).
	kind int
	// probeVars are the query variables supplying the probe key, aligned
	// with the kind's positions.
	probeVars []int
	// atomVars is the probed atom's variable list; matched tuples bind
	// them (bound positions rebind the same value — the index key already
	// guaranteed equality).
	atomVars []int
}

// NewStanding seeds standing state for plan over db: one pooled
// communication round distributes the query's relations, each server's
// fragments become resident hash indexes, and the plan's local phase runs
// once to seed the counted output. The cluster is returned to the pool
// before NewStanding returns — resident state lives in the Standing, so
// the pool keeps serving ordinary runs. db must not mutate during the seed —
// pass an immutable snapshot epoch (data.Database.Snapshot) or otherwise
// exclude Apply — and the plan must be the same single-round, Query-bearing
// plan the engine would execute for q. The seed's round and compute phase
// recover injected faults exactly as Execute does, within cfg.Retry's budget.
func NewStanding(plan *PhysicalPlan, q *query.Query, db *data.Database, cfg Config) (*Standing, error) {
	if plan.Query == nil {
		return nil, fmt.Errorf("exec: standing: %s plan has no local phase", plan.Strategy)
	}
	s := &Standing{
		plan:    plan,
		q:       q,
		layout:  &mpc.ResidentLayout{},
		atoms:   make(map[string]*deltaAtom, q.NumAtoms()),
		counted: mpc.NewCounted(q.NumVars()),
	}
	s.compile(db)

	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	pool, cluster, rt := cfg.acquire(plan.Virtual)
	defer pool.Put(cluster)
	rels := make([]*data.Relation, 0, q.NumAtoms())
	for _, a := range q.Atoms {
		rels = append(rels, db.MustGet(a.Name))
	}
	err := rt.driveRound(nil, func() error {
		return cluster.RoundRelations(plan.Router, rels...)
	})
	if err != nil {
		return nil, cfg.roundErr("standing: "+plan.Strategy+" routing", err)
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	// Seed the counted output from the raw per-server computation: every
	// server's derivations count +1, so answers derived on several servers
	// (overlapping §4.2 bin combinations) carry their true multiplicity
	// and later retractions retire them one derivation at a time.
	// Counted.Add copies, so the seed reads the rows header-free.
	rows := make([]data.Rows, plan.Virtual)
	err = rt.driveCompute("standing: "+plan.Strategy, 0, func(sv *mpc.Server) { rows[sv.ID] = join.Rows(plan.Query, sv.Received, 0) })
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		for i := 0; i < r.N; i++ {
			s.counted.Add(r.At(i), 1)
		}
	}
	// Freeze each server's fragments as resident indexes.
	s.residents = make([]*mpc.Resident, plan.Virtual)
	for i, sv := range cluster.Servers {
		res := mpc.NewResident(s.layout)
		for _, a := range q.Atoms {
			frag := sv.Fragment(a.Name)
			if frag == nil {
				continue
			}
			rel, t := s.atoms[a.Name].rel, make(data.Tuple, frag.Arity)
			for row := 0; row < frag.Size(); row++ {
				res.Insert(rel, frag.ReadTuple(row, t))
			}
		}
		s.residents[i] = res
	}
	return s, nil
}

// compile builds the per-atom delta programs and the shared index layout:
// for each atom as the delta source, a greedy extension order over the
// remaining atoms (most bound variables first, mirroring join.planOrder's
// preference for connected extensions), each step registering the index
// (relation, bound positions) it will probe.
func (s *Standing) compile(db *data.Database) {
	for j, atom := range s.q.Atoms {
		src := db.MustGet(atom.Name)
		da := &deltaAtom{atom: atom, bits: src.BitsPerTuple(), row: make([]int64, src.Arity)}
		cols := make([][]int64, src.Arity)
		for a := range cols {
			cols[a] = da.row[a : a+1]
		}
		da.stage = data.NewRelation(atom.Name, src.Arity, src.Domain)
		da.stage.AdoptColumns(cols, 1)
		bound := make(map[int]bool, s.q.NumVars())
		for _, v := range atom.Vars {
			bound[v] = true
		}
		used := make([]bool, s.q.NumAtoms())
		used[j] = true
		for range s.q.Atoms[1:] {
			best, bestShared := -1, -1
			for t := range s.q.Atoms {
				if used[t] {
					continue
				}
				shared := 0
				for _, v := range s.q.Atoms[t].Vars {
					if bound[v] {
						shared++
					}
				}
				if shared > bestShared {
					best, bestShared = t, shared
				}
			}
			target := s.q.Atoms[best]
			used[best] = true
			var pos, probeVars []int
			for p, v := range target.Vars {
				if bound[v] {
					pos = append(pos, p)
					probeVars = append(probeVars, v)
				}
			}
			kind := s.layout.AddIndex(target.Name, pos)
			da.steps = append(da.steps, deltaStep{kind: kind, probeVars: probeVars, atomVars: target.Vars})
			for _, v := range target.Vars {
				bound[v] = true
			}
		}
		s.atoms[atom.Name] = da
	}
	for _, da := range s.atoms {
		da.rel = s.layout.Rel(da.atom.Name)
	}
}

// ApplyOp folds one applied database operation into the standing state: a
// tuple of rel inserted (insert true) or deleted. Operations must be fed
// in the order Database.Apply performed them. Tuples of relations outside
// the query are ignored for free. The returned error reports a resident
// inconsistency (a delete routed to a server that never received the
// insert) — impossible under a frozen router, so callers treat it as a
// signal to rebuild from scratch rather than a recoverable condition.
func (s *Standing) ApplyOp(rel string, vals []int64, insert bool) error {
	da := s.atoms[rel]
	if da == nil {
		return nil
	}
	copy(da.row, vals)
	s.dst = s.plan.Router.Destinations(da.stage, 0, s.dst[:0])
	s.routedTuples += int64(len(s.dst))
	s.routedBits += da.bits * int64(len(s.dst))
	for _, d := range s.dst {
		if d < 0 || d >= len(s.residents) {
			return fmt.Errorf("exec: standing: %s router sent %s%v to server %d of %d",
				s.plan.Strategy, rel, vals, d, len(s.residents))
		}
		res := s.residents[d]
		if insert {
			s.deltaJoin(res, da, vals, +1)
			res.Insert(da.rel, vals)
		} else {
			if !res.Delete(da.rel, vals) {
				return fmt.Errorf("exec: standing: %s: delete of %s%v missing from server %d's resident fragment",
					s.plan.Strategy, rel, vals, d)
			}
			s.deltaJoin(res, da, vals, -1)
		}
	}
	return nil
}

// deltaJoin computes {t} ⋈ (the server's resident fragments of every other
// atom) and folds each derivation into the counted output with the given
// sign. Since no atom repeats a variable and there are no self-joins, the
// extension is a pure index-nested-loop over the compiled steps. Bindings
// live back to back in the cur/next arenas, k values each.
func (s *Standing) deltaJoin(res *mpc.Resident, da *deltaAtom, t []int64, sign int64) {
	k := s.q.NumVars()
	s.cur = slices.Grow(s.cur[:0], k)[:k]
	for p, v := range da.atom.Vars {
		s.cur[v] = t[p]
	}
	n := 1
	for _, step := range da.steps {
		cols := res.Cols(step.kind)
		s.next = s.next[:0]
		m := 0
		for i := 0; i < n; i++ {
			b := s.cur[i*k : (i+1)*k]
			s.probe = s.probe[:0]
			for _, v := range step.probeVars {
				s.probe = append(s.probe, b[v])
			}
			for row := res.Probe(step.kind, s.probe); row >= 0; row = res.Next(step.kind, row) {
				s.next = append(s.next, b...)
				nb := s.next[m*k:]
				for p, v := range step.atomVars {
					nb[v] = cols[p][row]
				}
				m++
			}
		}
		s.cur, s.next, n = s.next, s.cur, m
		if n == 0 {
			return
		}
	}
	for i := 0; i < n; i++ {
		row := s.counted.Add(s.cur[i*k:(i+1)*k], sign)
		for row >= len(s.start) {
			s.start = append(s.start, -1)
		}
		if s.start[row] < 0 {
			s.start[row] = s.counted.Count(row) - sign
			s.touched = append(s.touched, int32(row))
		}
	}
}

// Flush closes the current advance batch and returns its net result
// delta: answers that became live (added) and answers that were retracted
// (removed) since the previous Flush, each in the order the batch first
// touched them, as caller-owned tuples. Answers whose liveness round-tripped
// within the batch appear in neither. Rows left with no derivation retire
// only after the walk, so every touched row keeps its number until then.
func (s *Standing) Flush() (added, removed []data.Tuple) {
	s.added, s.removed = s.added[:0], s.removed[:0]
	for _, row := range s.touched {
		start, now := s.start[row], s.counted.Count(int(row))
		switch {
		case start == 0 && now > 0:
			s.added = append(s.added, row)
		case start > 0 && now == 0:
			s.removed = append(s.removed, row)
		}
		s.start[row] = -1
	}
	added, removed = s.counted.Copy(s.added), s.counted.Copy(s.removed)
	s.counted.Retire(s.touched)
	s.touched = s.touched[:0]
	return added, removed
}

// Counted exposes the counted output fragment (read-only) so owners can
// diff two standings across a reseed.
func (s *Standing) Counted() *mpc.Counted { return s.counted }

// StandingLoad reports cumulative incremental-maintenance work.
type StandingLoad struct {
	// RoutedTuples/RoutedBits count delta tuples delivered to servers
	// (each destination counted once, mirroring the model's received-load
	// accounting).
	RoutedTuples int64
	RoutedBits   int64
	// ResidentTuples sums the per-server resident fragment sizes — the
	// state the standing query keeps live between advances.
	ResidentTuples int64
}

// Load returns the standing query's cumulative load counters.
func (s *Standing) Load() StandingLoad {
	l := StandingLoad{
		RoutedTuples: s.routedTuples,
		RoutedBits:   s.routedBits,
	}
	for _, r := range s.residents {
		l.ResidentTuples += r.Tuples()
	}
	return l
}
