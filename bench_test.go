package repro

import (
	"context"
	"math"
	"strconv"
	"testing"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/lp"
	"repro/internal/mpc"
	"repro/internal/packing"
	"repro/internal/query"
	"repro/internal/rational"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/wcoj"
	"repro/internal/workload"
)

// Micro-benchmarks of the load-bearing primitives.

func BenchmarkShareLPTriangle(b *testing.B) {
	q := query.Triangle()
	bits := []float64{1 << 20, 1 << 18, 1 << 16}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hypercube.OptimalExponents(q, bits, 64)
	}
}

// BenchmarkPackingVertexEnumeration times the exact enumeration itself;
// packing.Vertices and PK would time hits in their per-shape memo.
func BenchmarkPackingVertexEnumeration(b *testing.B) {
	for _, q := range []*query.Query{query.Triangle(), query.Path(3), query.Cycle(4), query.Star(3)} {
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lp.EnumerateVertices(packing.Polytope(q))
			}
		})
	}
}

func BenchmarkSimplexBeale(b *testing.B) {
	build := func() *lp.Problem {
		p := lp.NewProblem(4)
		p.Objective = rational.Vector{
			rational.New(-3, 4), rational.FromInt(150), rational.New(-1, 50), rational.FromInt(6),
		}
		p.AddConstraint(rational.Vector{rational.New(1, 4), rational.FromInt(-60), rational.New(-1, 25), rational.FromInt(9)}, lp.LE, rational.Zero())
		p.AddConstraint(rational.Vector{rational.New(1, 2), rational.FromInt(-90), rational.New(-1, 50), rational.FromInt(3)}, lp.LE, rational.Zero())
		p.AddConstraint(rational.Vector{rational.Zero(), rational.Zero(), rational.One(), rational.Zero()}, lp.LE, rational.One())
		return p
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if build().Solve().Status != lp.Optimal {
			b.Fatal("not optimal")
		}
	}
}

func BenchmarkHashingThroughput(b *testing.B) {
	f := hashing.NewFamily(1)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		f.Hash(i&3, int64(i), 64)
	}
}

// BenchmarkRouterDestinations measures the per-tuple cost of the HC
// routing hot path the communication phase drives: destinations are
// computed from the relation's columns in place, with no row view at all,
// and must report 0 allocs/op.
func BenchmarkRouterDestinations(b *testing.B) {
	q := query.Triangle()
	fam := hashing.NewFamily(2)
	r := hypercube.NewRouter(q, []int{4, 4, 4}, fam)
	rel := NewRelation("S1", 2, 1<<20)
	for i := int64(0); i < 1024; i++ {
		rel.Add((12345*i)%(1<<20), (67890*i)%(1<<20))
	}
	var dst []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = r.Destinations(rel, i&1023, dst[:0])
	}
	if len(dst) != 4 {
		b.Fatalf("destinations = %d", len(dst))
	}
}

// benchSession opens a session on p servers or fails the benchmark.
func benchSession(b *testing.B, p int, seed uint64) *Session {
	s, err := Open(Config{P: p, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// benchExec is Session.Exec failing the benchmark on error.
func benchExec(b *testing.B, s *Session, q *Query, db *Database, opts ...ExecOption) {
	if _, err := s.Exec(context.Background(), q, db, opts...); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPlanCache measures Session.Exec on a skewed two-relation
// join, with planning amortized by the plan cache (hit) versus replanned
// every call (miss).
func BenchmarkPlanCache(b *testing.B) {
	q := query.Join2()
	db := NewDatabase()
	db.Put(workload.Zipf("S1", 2000, 1<<20, 1, 1.6, 300, 1))
	db.Put(workload.Zipf("S2", 2000, 1<<20, 1, 1.6, 300, 2))
	b.Run("hit", func(b *testing.B) {
		s := benchSession(b, 64, 3)
		benchExec(b, s, q, db) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchExec(b, s, q, db)
		}
		if s.CacheStats().Hits == 0 {
			b.Fatal("no cache hits")
		}
	})
	b.Run("miss", func(b *testing.B) {
		s := benchSession(b, 64, 3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchExec(b, s, q, db, WithoutCache())
		}
	})
}

// coldPlanGraphs is bench/'s cold_plan input at seed 1 (bench/workloads.go:
// three SkewedGraph relations, 5000 edges over 2000 vertices, zipf 1.2).
func coldPlanGraphs() *Database {
	db := NewDatabase()
	for i, name := range []string{"S1", "S2", "S3"} {
		db.Put(workload.SkewedGraph(name, 5000, 2000, 1.2, 1+int64(i)*7919))
	}
	return db
}

// BenchmarkCollectDB is the statistics pass of a cold plan by itself:
// heavy hitters at m/64 over every attribute subset of cold_plan's three
// relations.
func BenchmarkCollectDB(b *testing.B) {
	db := coldPlanGraphs()
	rows := 0
	for _, r := range db.Relations {
		rows += r.Size()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats.CollectDB(db, 64)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkBestLowerColdPlan is the lower bound of a cold plan by itself:
// BestLowerWith on cold_plan's triangle at p = 64, through a fresh pass on
// which CollectDB has already built the groupings, as in core's planning.
func BenchmarkBestLowerColdPlan(b *testing.B) {
	q, db := query.Triangle(), coldPlanGraphs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ps := new(stats.Pass)
		ps.CollectDB(db, 64)
		b.StartTimer()
		bounds.BestLowerWith(q, db, 64, 0, ps)
	}
}

// BenchmarkColdPlanTriangle is one whole cold_plan op: an uncached
// Session.Exec of the triangle (statistics, lower bounds, bin-combination
// planning, the round, the local joins and Dedup).
func BenchmarkColdPlanTriangle(b *testing.B) {
	q, db := query.Triangle(), coldPlanGraphs()
	s := benchSession(b, 64, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchExec(b, s, q, db, WithoutCache())
	}
}

func BenchmarkLocalJoinTriangle(b *testing.B) {
	q := query.Triangle()
	db := workload.ForQuery([]workload.AtomSpec{
		{Name: "S1", Arity: 2, M: 2000, Domain: 300},
		{Name: "S2", Arity: 2, M: 2000, Domain: 300},
		{Name: "S3", Arity: 2, M: 2000, Domain: 300},
	}, 5)
	rels := join.FromDatabase(db)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		join.Join(q, rels)
	}
}

// BenchmarkLocalJoinZipfOutput is the output-bound local join by itself:
// the bench/ hit_zipf shape (join2, both sides Zipf(1.2) over 500 join
// values, m=5000, p=64, ~2 M answers) routed once through the skew-join
// plan, then the busiest server's fragments joined per iteration. It
// reports answers per op and ns per answer; B/op over answers is the bytes
// per answer — the kernel's floor is the answer arena (k·8 B) plus one
// slice header (24 B) per answer.
func BenchmarkLocalJoinZipfOutput(b *testing.B) {
	q, rels, answers := busiestZipfServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(join.Join(q, rels)) != answers {
			b.Fatal("answer count changed")
		}
	}
	b.ReportMetric(float64(answers), "answers")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(answers)), "ns/answer")
}

// BenchmarkLocalJoinZipfRows is the kernel alone on the same server:
// join.Rows writes the flat answer arena and no header, so ns/answer is
// the join's own cost per answer and B/op over answers is k·8 B.
func BenchmarkLocalJoinZipfRows(b *testing.B) {
	q, rels, answers := busiestZipfServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if join.Rows(q, rels, 0).N != answers {
			b.Fatal("answer count changed")
		}
	}
	b.ReportMetric(float64(answers), "answers")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(answers)), "ns/answer")
}

// busiestZipfServer routes the hit_zipf shape once through the skew-join
// plan and returns the fragments of the server with the most answers.
func busiestZipfServer(b *testing.B) (*query.Query, map[string]*data.Relation, int) {
	b.Helper()
	// The degrees mirror zipfDegrees in bench/workloads.go (rounded up here,
	// largest-remainder there; the value permutation does not matter to one
	// server's join).
	const m, distinct = 5000, 500
	var norm float64
	for k := 1; k <= distinct; k++ {
		norm += math.Pow(float64(k), -1.2)
	}
	degrees := make(map[int64]int, distinct)
	for k := 1; k <= distinct; k++ {
		degrees[int64(k)] = int(math.Ceil(m * math.Pow(float64(k), -1.2) / norm))
	}
	db := NewDatabase()
	db.Put(workload.DegreeSequence("S1", 1<<20, 1, degrees, 1))
	db.Put(workload.DegreeSequence("S2", 1<<20, 1, degrees, 2))
	q := query.Join2()
	plan := skew.PlanJoin(q, db, skew.JoinConfig{P: 64, Seed: 1}).Phys
	cluster := mpc.NewCluster(plan.Virtual)
	if err := cluster.RoundRelations(plan.Router, db.MustGet("S1"), db.MustGet("S2")); err != nil {
		b.Fatal(err)
	}
	var busiest map[string]*data.Relation
	answers := 0
	for _, s := range cluster.Servers {
		if n := join.Rows(q, s.Received, 0).N; n > answers {
			busiest, answers = s.Received, n
		}
	}
	return q, busiest, answers
}

func BenchmarkHyperCubeEndToEnd(b *testing.B) {
	for _, p := range []int{16, 64, 256} {
		b.Run("p="+strconv.Itoa(p), func(b *testing.B) {
			q := query.Triangle()
			db := workload.ForQuery([]workload.AtomSpec{
				{Name: "S1", Arity: 2, M: 5000, Domain: 1 << 20},
				{Name: "S2", Arity: 2, M: 5000, Domain: 1 << 20},
				{Name: "S3", Arity: 2, M: 5000, Domain: 1 << 20},
			}, 7)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan := hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: uint64(i)})
				res, _ := exec.Execute(exec.OneRound(plan.Phys), db, exec.Config{SkipCompute: true}) // no ctx, no faults: never errors
				b.ReportMetric(float64(res.Rounds[0].MaxBits), "maxload-bits")
			}
		})
	}
}

func BenchmarkSkewJoinEndToEnd(b *testing.B) {
	db := NewDatabase()
	db.Put(workload.Zipf("S1", 5000, 1<<20, 1, 1.6, 500, 1))
	db.Put(workload.Zipf("S2", 5000, 1<<20, 1, 1.6, 500, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := skew.PlanJoin(query.Join2(), db, skew.JoinConfig{P: 64, Seed: uint64(i)})
		res, _ := exec.Execute(exec.OneRound(plan.Phys), db, exec.Config{SkipCompute: true}) // no ctx, no faults: never errors
		b.ReportMetric(float64(res.MaxLoadBits()), "maxload-bits")
	}
}

func BenchmarkResidualLowerBound(b *testing.B) {
	db := NewDatabase()
	db.Put(workload.Zipf("S1", 3000, 1<<20, 1, 1.6, 300, 1))
	db.Put(workload.Zipf("S2", 3000, 1<<20, 1, 1.6, 300, 2))
	q := query.Join2()
	x := query.NewVarSet(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bounds.ResidualLower(q, x, db, 64)
	}
}

func BenchmarkWCOJvsBinaryJoinHard(b *testing.B) {
	// The classic AGM-hard triangle instance: every relation is a double
	// star {0}×[n] ∪ [n]×{0}, so EVERY pairwise join is quadratic (no join
	// order escapes), while the triangle output is only Θ(n). The generic
	// worst-case-optimal join runs near the output size.
	const n = 400
	mk := func(name string) *data.Relation {
		r := NewRelation(name, 2, 1<<20)
		for i := int64(1); i <= n; i++ {
			r.Add(0, i)
			r.Add(i, 0)
		}
		r.Add(0, 0)
		return r
	}
	rels := map[string]*data.Relation{"S1": mk("S1"), "S2": mk("S2"), "S3": mk("S3")}
	q := query.Triangle()
	b.Run("wcoj", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wcoj.Join(q, rels)
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			join.Join(q, rels)
		}
	})
}

func BenchmarkGeneralSkewSweepP(b *testing.B) {
	for _, p := range []int{16, 64} {
		b.Run("p="+strconv.Itoa(p), func(b *testing.B) {
			q := query.Join2()
			db := NewDatabase()
			db.Put(workload.Zipf("S1", 3000, 1<<20, 1, 1.7, 400, 1))
			db.Put(workload.Zipf("S2", 3000, 1<<20, 1, 1.7, 400, 2))
			for i := 0; i < b.N; i++ {
				plan := skew.PlanGeneral(q, db, skew.GeneralConfig{P: p, Seed: uint64(i)})
				_, _ = exec.Execute(exec.OneRound(plan.Phys), db, exec.Config{SkipCompute: true}) // no ctx, no faults: never errors
				b.ReportMetric(float64(len(plan.Combos)), "combos")
			}
		})
	}
}

// BenchmarkMultiRoundEndToEnd measures the pipelined multi-round path
// (plan lowering + exec.Execute with resident intermediates) on its
// two canonical instances: the sparse triangle and the skew-aware zipf
// join.
func BenchmarkMultiRoundEndToEnd(b *testing.B) {
	b.Run("triangle-matchings", func(b *testing.B) {
		q := query.Triangle()
		db := NewDatabase()
		for j, name := range []string{"S1", "S2", "S3"} {
			db.Put(workload.Matching(name, 2, 5000, 1<<20, int64(j+1)))
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, _ := exec.Execute(rounds.PlanPipeline(q, db, rounds.Config{P: 64, Seed: uint64(i)}).Pipe, db, exec.Config{}) // no ctx, no faults: never errors
			b.ReportMetric(float64(res.MaxLoadBits()), "sum-max-bits")
		}
	})
	b.Run("zipf-join2-skew-aware", func(b *testing.B) {
		q := query.Join2()
		db := NewDatabase()
		db.Put(workload.Zipf("S1", 5000, 1<<20, 1, 1.6, 500, 1))
		db.Put(workload.Zipf("S2", 5000, 1<<20, 1, 1.6, 500, 2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, _ := exec.Execute(rounds.PlanPipeline(q, db, rounds.Config{P: 64, Seed: uint64(i), SkewAware: true}).Pipe, db, exec.Config{}) // no ctx, no faults: never errors
			b.ReportMetric(float64(res.MaxLoadBits()), "sum-max-bits")
		}
	})
	// Cached multi-round plans through the engine: lowering amortized away.
	b.Run("engine-cached", func(b *testing.B) {
		q := query.Triangle()
		db := NewDatabase()
		for j, name := range []string{"S1", "S2", "S3"} {
			db.Put(workload.Matching(name, 2, 5000, 1<<20, int64(j+1)))
		}
		s := benchSession(b, 64, 3)
		force := WithStrategy(StrategyMultiRound)
		benchExec(b, s, q, db, force) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchExec(b, s, q, db, force)
		}
	})
}
