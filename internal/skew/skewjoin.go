// Package skew implements the skew-aware one-round algorithms of §4 of
// Beame–Koutris–Suciu: the two-table skew join of §4.1 (light hitters by
// hash join, jointly-heavy hitters by per-hitter cartesian grids,
// one-sided-heavy hitters by partition+broadcast) and the general
// bin-combination algorithm of §4.2 for arbitrary conjunctive queries.
//
// Both algorithms allocate Θ(p) virtual processors (as the paper does) and
// run in a single communication round: every routing decision is a pure
// function of the tuple plus the pre-computed heavy-hitter statistics. The
// §4.1 layout and router (Binary) take keys of any width and estimated
// frequencies, so each round of a multi-round plan uses them too.
package skew

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/query"
	"repro/internal/stats"
)

// JoinConfig configures the §4.1 skew join of q(x,y,z) = S1(x,z), S2(y,z).
type JoinConfig struct {
	P    int
	Seed uint64
}

// joinShape is the §4.1 query shape extracted from q's own atoms: relation
// names, the position of the shared join variable z in each atom, and the
// hash dimensions (q's variable indices, so renamed queries route their
// own column order — no canonical-name remapping).
type joinShape struct {
	q                *query.Query
	name1, name2     string
	zPos1, zPos2     int // column of z in atom 1 / atom 2
	xPos1, xPos2     int // column of the private variable
	dimX, dimY, dimZ int
}

// shapeOf validates that q is the two-relation join q(x,y,z) = R(..), T(..)
// — two binary atoms sharing exactly one variable — and extracts its shape.
func shapeOf(q *query.Query) (joinShape, error) {
	if q.NumAtoms() != 2 || q.NumVars() != 3 ||
		q.Atoms[0].Arity() != 2 || q.Atoms[1].Arity() != 2 {
		return joinShape{}, fmt.Errorf("skew: the skew join needs two binary atoms over three variables: %s", q)
	}
	a, b := q.Atoms[0], q.Atoms[1]
	sh := joinShape{q: q, name1: a.Name, name2: b.Name, zPos1: -1}
	for pa, va := range a.Vars {
		for pb, vb := range b.Vars {
			if va == vb {
				if sh.zPos1 >= 0 {
					return joinShape{}, fmt.Errorf("skew: the skew join needs exactly one shared variable: %s", q)
				}
				sh.zPos1, sh.zPos2 = pa, pb
				sh.dimZ = va
			}
		}
	}
	if sh.zPos1 < 0 {
		return joinShape{}, fmt.Errorf("skew: the skew join needs a shared variable: %s", q)
	}
	sh.xPos1, sh.xPos2 = 1-sh.zPos1, 1-sh.zPos2
	sh.dimX = a.Vars[sh.xPos1]
	sh.dimY = b.Vars[sh.xPos2]
	return sh, nil
}

// CheckJoin reports why q is not a two-relation join PlanJoin can plan, or
// nil when it is.
func CheckJoin(q *query.Query) error {
	_, err := shapeOf(q)
	return err
}

// JoinPlan is the §4.1 planner output: the Binary join's blocks lowered
// to the unified executor's PhysicalPlan (run it as exec.OneRound(Phys)).
// Plans are reusable across executions.
type JoinPlan struct {
	Phys                 *exec.PhysicalPlan
	NumH1, NumH2, NumH12 int
	// PredictedBits is Eq. (10), max(m1/p, m2/p, L1, L2, L12) tuples, at
	// 2·⌈log₂ n⌉ bits per tuple.
	PredictedBits float64
}

// PlanJoin detects heavy hitters at threshold m_j/p and allocates virtual
// processors per §4.1 for the two-relation join q over db, routing q's own
// relation names and column order. Every routing decision of the produced
// plan is a pure function of the tuple plus the heavy-hitter statistics
// frozen at plan time.
func PlanJoin(q *query.Query, db *data.Database, cfg JoinConfig) *JoinPlan {
	ps := new(stats.Pass)
	defer ps.Release()
	return PlanJoinWith(q, db, cfg, ps)
}

// PlanJoinWith is PlanJoin reading the exact join-column frequencies
// through the caller's statistics pass.
func PlanJoinWith(q *query.Query, db *data.Database, cfg JoinConfig, ps *stats.Pass) *JoinPlan {
	if cfg.P < 1 {
		panic("skew: P must be >= 1")
	}
	sh, err := shapeOf(q)
	if err != nil {
		panic(err.Error())
	}
	s1, s2 := db.MustGet(sh.name1), db.MustGet(sh.name2)
	m1, m2 := int64(s1.Size()), int64(s2.Size())
	// heavyOf returns the join-column values of s with frequency ≥ m/p (the
	// paper's H_j sets) and their exact counts.
	heavyOf := func(s *data.Relation, zPos int, m int64) map[int64]int64 {
		thr := float64(m) / float64(cfg.P)
		heavy := make(map[int64]int64)
		ps.Frequencies(s, []int{zPos}).Each(func(key []int64, c int64) {
			if float64(c) >= thr {
				heavy[key[0]] = c
			}
		})
		return heavy
	}
	heavy1 := heavyOf(s1, sh.zPos1, m1)
	heavy2 := heavyOf(s2, sh.zPos2, m2)
	var heavy []HeavyKey
	for v, c := range heavy1 {
		c2, both := heavy2[v]
		heavy = append(heavy, HeavyKey{Key: []int64{v}, FL: float64(c), FR: float64(c2), HeavyL: true, HeavyR: both})
	}
	for v, c := range heavy2 {
		if _, done := heavy1[v]; !done {
			heavy = append(heavy, HeavyKey{Key: []int64{v}, FR: float64(c), HeavyR: true})
		}
	}
	family := hashing.NewFamily(cfg.Seed)
	bp := (&Binary{
		P:        cfg.P,
		Left:     BinarySide{Name: sh.name1, Key: []int{sh.zPos1}, Spread: []int{sh.xPos1}, Seed: family.DimSeed(sh.dimX)},
		Right:    BinarySide{Name: sh.name2, Key: []int{sh.zPos2}, Spread: []int{sh.xPos2}, Seed: family.DimSeed(sh.dimY)},
		KeySeeds: []uint64{family.DimSeed(sh.dimZ)},
		Heavy:    heavy,
	}).Plan()
	jp := &JoinPlan{PredictedBits: bp.PredictedTuples(float64(m1), float64(m2)) * float64(s1.BitsPerTuple())}
	jp.NumH1, jp.NumH2, jp.NumH12 = bp.Router.Classes()
	jp.Phys = &exec.PhysicalPlan{
		Strategy: "skew-join",
		Virtual:  bp.Virtual,
		Physical: cfg.P,
		Router:   bp.Router,
		// Route only the join's two relations: serving latency must not
		// scale with unrelated relations sharing the database.
		Relations:     q.AtomNames(),
		Query:         q,
		PredictedBits: jp.PredictedBits,
	}
	// Heavy runs on the join column route span-wise (the router's routes
	// compile runs on their key column): one block lookup per run instead of
	// one per tuple. In a self-join the router binds the shared relation as
	// its first atom, so only that atom's column is hinted.
	jp.Phys.PartitionHints = []exec.PartitionHint{{Rel: sh.name1, Attr: sh.zPos1}}
	if sh.name2 != sh.name1 {
		jp.Phys.PartitionHints = append(jp.Phys.PartitionHints, exec.PartitionHint{Rel: sh.name2, Attr: sh.zPos2})
	}
	return jp
}
