package exec

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
)

// Standing is the incremental counterpart of Run for a one-round plan: it
// executes the plan's communication and local phases once to seed resident
// per-server state, then maintains the result under single-tuple deltas.
// ApplyOp routes one inserted or deleted tuple through the plan's (frozen,
// deterministic) router to exactly the virtual servers a full execution
// would deliver it to, joins it against each server's resident fragments
// of the *other* atoms, and folds the resulting derivations — positive for
// inserts, negative for deletes — into a counted output fragment. An
// advance therefore costs O(|delta| · matched derivations) instead of the
// full-database routing a cache-hit Run pays.
//
// Correctness rests on three invariants of this repository's plans: every
// strategy's local phase is the natural join of the server's received
// fragments (so {t} ⋈ residents is exactly the server's output delta);
// queries have no self-joins (so a delta tuple never joins with itself and
// the remaining atoms' fragments are unaffected by its own insertion); and
// routers are frozen at plan time (so a delete revisits precisely the
// servers its insert populated, making counting-based retraction exact).
//
// A Standing is not safe for concurrent use; callers serialize ApplyOp,
// Flush, and Result (core.StandingQuery holds a handle mutex).
type Standing struct {
	plan   *PhysicalPlan
	q      *query.Query
	router mpc.Router

	layout    *mpc.ResidentLayout
	residents []*mpc.Resident
	atoms     map[string]*deltaAtom
	counted   *mpc.Counted

	// touched snapshots, per advance batch, the derivation count each
	// output tuple had when the batch first touched it; Flush diffs the
	// snapshot against the current counts so a tuple inserted and deleted
	// within one batch reports neither added nor removed.
	touched map[data.Key]touchEntry

	// dst, cur, next are routing/join scratch reused across ops.
	dst       []int
	cur, next []data.Tuple

	routedTuples int64
	routedBits   int64
	derivations  int64
}

type touchEntry struct {
	start int64
	t     data.Tuple
}

// deltaAtom is the compiled per-relation delta program: when a tuple of
// this atom's relation changes, steps extends it through the remaining
// atoms in a fixed greedy order, probing one resident index per step.
type deltaAtom struct {
	atom query.Atom
	bits int64 // BitsPerTuple of the relation, for load accounting
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
// recover injected faults exactly as Run does, within cfg.Retry's budget.
func NewStanding(plan *PhysicalPlan, q *query.Query, db *data.Database, cfg Config) (*Standing, error) {
	if plan.Query == nil {
		return nil, fmt.Errorf("exec: standing: %s plan has no local phase", plan.Strategy)
	}
	s := &Standing{
		plan:    plan,
		q:       q,
		router:  mpc.SenderRouter(plan.Router),
		layout:  &mpc.ResidentLayout{},
		atoms:   make(map[string]*deltaAtom, q.NumAtoms()),
		counted: mpc.NewCounted(),
		touched: make(map[data.Key]touchEntry),
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
		if cfg.recoverable(err) {
			return nil, err
		}
		panic(fmt.Sprintf("exec: standing: %s routing failed: %v", plan.Strategy, err))
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
		s.derivations += int64(r.N)
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
			frag.Each(func(_ int, t data.Tuple) bool {
				res.Insert(a.Name, t)
				return true
			})
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
		da := &deltaAtom{atom: atom, bits: db.MustGet(atom.Name).BitsPerTuple()}
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
	t := data.Tuple(vals)
	s.dst = s.router.Destinations(rel, t, s.dst[:0])
	s.routedTuples += int64(len(s.dst))
	s.routedBits += da.bits * int64(len(s.dst))
	for _, d := range s.dst {
		if d < 0 || d >= len(s.residents) {
			return fmt.Errorf("exec: standing: %s router sent %s%v to server %d of %d",
				s.plan.Strategy, rel, t, d, len(s.residents))
		}
		res := s.residents[d]
		if insert {
			s.deltaJoin(res, da, t, +1)
			res.Insert(rel, t)
		} else {
			if !res.Delete(rel, t) {
				return fmt.Errorf("exec: standing: %s: delete of %s%v missing from server %d's resident fragment",
					s.plan.Strategy, rel, t, d)
			}
			s.deltaJoin(res, da, t, -1)
		}
	}
	return nil
}

// deltaJoin computes {t} ⋈ (the server's resident fragments of every other
// atom) and folds each derivation into the counted output with the given
// sign. Since no atom repeats a variable and there are no self-joins, the
// extension is a pure index-nested-loop over the compiled steps.
func (s *Standing) deltaJoin(res *mpc.Resident, da *deltaAtom, t data.Tuple, sign int64) {
	k := s.q.NumVars()
	s.cur = s.cur[:0]
	b := make(data.Tuple, k)
	for p, v := range da.atom.Vars {
		b[v] = t[p]
	}
	s.cur = append(s.cur, b)
	probe := make(data.Tuple, 0, k)
	for _, step := range da.steps {
		s.next = s.next[:0]
		for _, b := range s.cur {
			probe = probe[:0]
			for _, v := range step.probeVars {
				probe = append(probe, b[v])
			}
			for _, match := range res.Probe(step.kind, data.KeyOf(probe)) {
				nb := append(data.Tuple(nil), b...)
				for p, v := range step.atomVars {
					nb[v] = match[p]
				}
				s.next = append(s.next, nb)
			}
		}
		s.cur, s.next = s.next, s.cur
		if len(s.cur) == 0 {
			return
		}
	}
	for _, out := range s.cur {
		key := data.KeyOf(out)
		if _, seen := s.touched[key]; !seen {
			s.touched[key] = touchEntry{start: s.counted.Count(key), t: append(data.Tuple(nil), out...)}
		}
		s.counted.Add(out, sign)
		s.derivations += sign
	}
}

// Flush closes the current advance batch and returns its net result
// delta: tuples that became live (added) and tuples that were retracted
// (removed) since the previous Flush, in unspecified order. Tuples whose
// liveness round-tripped within the batch appear in neither.
func (s *Standing) Flush() (added, removed []data.Tuple) {
	for key, e := range s.touched {
		now := s.counted.Count(key)
		switch {
		case e.start == 0 && now > 0:
			added = append(added, e.t)
		case e.start > 0 && now == 0:
			removed = append(removed, e.t)
		}
	}
	clear(s.touched)
	return added, removed
}

// Result returns the materialized standing result: the distinct tuples
// with a positive derivation count. The slice and its rows are live
// internal storage — read-only, valid until the next ApplyOp.
func (s *Standing) Result() []data.Tuple { return s.counted.Tuples() }

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
	// Derivations is the current total derivation count (Σ counts).
	Derivations int64
	// ResidentTuples sums the per-server resident fragment sizes — the
	// state the standing query keeps live between advances.
	ResidentTuples int64
}

// Load returns the standing query's cumulative load counters.
func (s *Standing) Load() StandingLoad {
	l := StandingLoad{
		RoutedTuples: s.routedTuples,
		RoutedBits:   s.routedBits,
		Derivations:  s.derivations,
	}
	for _, r := range s.residents {
		l.ResidentTuples += r.Tuples()
	}
	return l
}
