package core

import (
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/workload"
)

func sortTuples(ts []data.Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		for k := range ts[i] {
			if ts[i][k] != ts[j][k] {
				return ts[i][k] < ts[j][k]
			}
		}
		return false
	})
}

// TestStrategiesAgreeThroughUnifiedExecutor forces every applicable
// strategy on the same query/database and asserts identical sorted outputs
// through the unified executor — the cross-strategy equivalence contract:
// strategies may differ in load, never in answers.
func TestStrategiesAgreeThroughUnifiedExecutor(t *testing.T) {
	cases := []struct {
		name       string
		q          *query.Query
		db         *data.Database
		strategies []Strategy
		answers    int // expected answer count when hand-computed; 0 = oracle only
	}{
		{
			// The §4.1 shape with skew and renamed relations: all three
			// strategies apply (the skew join must route q's own names and
			// column order).
			name: "join2-renamed-zipf",
			q:    query.MustParse("q(a,b,c) = R(a,c), T(b,c)"),
			db: func() *data.Database {
				db := data.NewDatabase()
				db.Put(workload.Zipf("R", 500, 100000, 1, 1.8, 100, 4))
				db.Put(workload.Zipf("T", 500, 100000, 1, 1.8, 100, 5))
				return db
			}(),
			strategies: []Strategy{HyperCube, SkewJoin, BinCombination},
		},
		{
			// A skewed triangle: HyperCube and bin combinations apply.
			name: "triangle-planted-heavy",
			q:    query.Triangle(),
			db: func() *data.Database {
				db := data.NewDatabase()
				db.Put(workload.PlantedHeavy("S1", 300, 100000, 0, []workload.HeavySpec{{Value: 3, Count: 80}}, 1))
				db.Put(workload.Uniform("S2", 2, 300, 200, 2))
				db.Put(workload.Uniform("S3", 2, 300, 200, 3))
				return db
			}(),
			strategies: []Strategy{HyperCube, BinCombination},
		},
		{
			// Fewer tuples than servers (m = 5 < p = 16): the heavy threshold
			// m/p floors below one tuple, where PR 20's "every value is
			// heavy" bug lived. 3·2 answers on z = 7 plus 1·2 on z = 8.
			name: "join2-m-below-p",
			q:    query.Join2(),
			db: func() *data.Database {
				db := data.NewDatabase()
				s1 := data.NewRelation("S1", 2, 1<<10)
				for _, tu := range [][2]int64{{1, 7}, {2, 7}, {3, 7}, {4, 8}, {5, 9}} {
					s1.Add(tu[0], tu[1])
				}
				s2 := data.NewRelation("S2", 2, 1<<10)
				for _, tu := range [][2]int64{{10, 7}, {11, 7}, {12, 8}, {13, 8}, {14, 1}} {
					s2.Add(tu[0], tu[1])
				}
				db.Put(s1)
				db.Put(s2)
				return db
			}(),
			strategies: []Strategy{HyperCube, SkewJoin, BinCombination, MultiRound},
			answers:    8,
		},
		{
			// An empty relation: every planner must survive m_1 = 0 (no
			// statistics, no shares to balance) and agree on no answers.
			name: "join2-empty-S1",
			q:    query.Join2(),
			db: func() *data.Database {
				db := data.NewDatabase()
				db.Put(data.NewRelation("S1", 2, 1<<10))
				db.Put(workload.Uniform("S2", 2, 200, 1<<10, 2))
				return db
			}(),
			strategies: []Strategy{HyperCube, SkewJoin, BinCombination, MultiRound},
		},
	}
	for _, c := range cases {
		want := join.Join(c.q, join.FromDatabase(c.db))
		sortTuples(want)
		if c.answers != 0 && len(want) != c.answers {
			t.Fatalf("%s: oracle found %d answers, hand count is %d", c.name, len(want), c.answers)
		}
		for _, s := range c.strategies {
			s := s
			e := newEngine(t, Config{P: 16, Seed: 9})
			res := execute(t, e, c.q, c.db, ExecOptions{Strategy: &s})
			if res.Plan.Strategy != s {
				t.Fatalf("%s: forced %v but ran %v", c.name, s, res.Plan.Strategy)
			}
			got := append([]data.Tuple(nil), res.Output...)
			sortTuples(got)
			if len(got) != len(want) {
				t.Errorf("%s/%v: %d tuples, want %d", c.name, s, len(got), len(want))
				continue
			}
			for i := range got {
				for k := range got[i] {
					if got[i][k] != want[i][k] {
						t.Errorf("%s/%v: tuple %d = %v, want %v", c.name, s, i, got[i], want[i])
						break
					}
				}
			}
		}
	}
}
