package exec_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/workload"
)

// probeRelation returns a relation named and shaped like rel whose rows mix
// rel's own with made-up ones: every projection that occurs in rel (so every
// heavy key and heavy key pair) next to fresh values, and rows of values rel
// never holds (absent keys).
func probeRelation(rel *data.Relation, rng *rand.Rand) *data.Relation {
	probe := data.NewRelation(rel.Name, rel.Arity, rel.Domain)
	n := rel.Size()
	if n > 400 {
		n = 400
	}
	vals := make([]int64, rel.Arity)
	for i := 0; i < n; i++ {
		row := rng.Intn(rel.Size())
		probe.AppendRow(rel, row)
		// The same row with a random subset of its columns replaced.
		rel.ReadTuple(row, vals)
		for a := range vals {
			if rng.Intn(2) == 0 {
				vals[a] = rel.Domain - 1 - int64(rng.Intn(50))
			}
		}
		probe.Add(vals...)
	}
	return probe
}

func destSet(dst []int) []int {
	s := slices.Clone(dst)
	slices.Sort(s)
	return slices.Compact(s)
}

// checkRouter asserts, on every row of every probe, that the route
// CompileSpan resolves for the row's value at each attribute the router
// spans delivers where Destinations does, and that Destinations, annotated
// //skewlint:noalloc, does not allocate.
func checkRouter(t *testing.T, name string, router mpc.Router, probes ...*data.Relation) {
	t.Helper()
	r := mpc.SenderRouter(router)
	sr, spans := r.(mpc.SpanRouter)
	routed := 0
	for _, rel := range probes {
		for row := 0; row < rel.Size(); row++ {
			at := r.Destinations(rel, row, nil)
			routed += len(at)
			for attr := 0; spans && attr < rel.Arity; attr++ {
				if !sr.SpansAttr(rel, attr) {
					continue
				}
				var route mpc.SpanRoute
				if !sr.CompileSpan(rel, attr, rel.At(row, attr), &route) {
					continue // declined: the engine routes the run per tuple
				}
				span := route.Dests
				if route.PerRow != nil {
					span = route.PerRow(row, nil)
				}
				if !slices.Equal(destSet(span), destSet(at)) {
					t.Fatalf("%s: %s row %d %v: span on attr %d routes to %v, Destinations to %v",
						name, rel.Name, row, rel.Tuple(row), attr, destSet(span), destSet(at))
				}
			}
		}
		dst := make([]int, 0, 1<<16)
		if n := testing.AllocsPerRun(50, func() {
			for row := 0; row < rel.Size(); row++ {
				dst = r.Destinations(rel, row, dst[:0])
			}
		}); n != 0 {
			t.Errorf("%s: routing %s allocates %v times per pass, want 0", name, rel.Name, n)
		}
	}
	if routed == 0 {
		t.Fatalf("%s: no probe row was routed anywhere", name)
	}
}

func TestRouterEntryPointsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	probesOf := func(db *data.Database) []*data.Relation {
		var out []*data.Relation
		for _, name := range db.Names() {
			out = append(out, probeRelation(db.MustGet(name), rng))
		}
		return out
	}

	// §4.2 router: overweight exclusions and block lookups, single-column
	// (planted triangle) and two-column (the heavy (x,z) pair of a ternary
	// atom drives a |x| = 2 bin combination).
	planted := data.NewDatabase()
	hv := []workload.HeavySpec{{Value: 3, Count: 1500}, {Value: 8, Count: 300}}
	planted.Put(workload.PlantedHeavy("S1", 3000, 1<<20, 0, hv, 1))
	planted.Put(workload.PlantedHeavy("S2", 3000, 1<<20, 1, hv, 2))
	planted.Put(workload.Zipf("S3", 3000, 1<<20, 0, 1.3, 400, 3))
	gp := skew.PlanGeneral(query.Triangle(), planted, skew.GeneralConfig{P: 32, Seed: 1})
	if len(gp.Combos) < 2 {
		t.Fatalf("planted triangle planned %d bin combinations, want heavy ones too", len(gp.Combos))
	}
	checkRouter(t, "general/planted-triangle", gp.Phys.Router, probesOf(planted)...)

	deep := data.NewDatabase()
	r3 := data.NewRelation("R", 3, 10000)
	s2 := data.NewRelation("S", 2, 10000)
	for i := int64(0); i < 48; i++ {
		r3.Add(7, 100+i, 5) // the pair (x=7, z=5) occurs 48 times
		r3.Add(500+i, 600+i, 1000+i)
	}
	for i := int64(0); i < 40; i++ {
		s2.Add(5, 200+i) // z=5 heavy in S too
		s2.Add(1000+i, 300+i)
	}
	deep.Put(r3)
	deep.Put(s2)
	dq := query.MustParse("q(x,y,z,w) = R(x,y,z), S(z,w)")
	checkRouter(t, "general/deep-combos", skew.PlanGeneral(dq, deep, skew.GeneralConfig{P: 8, Seed: 5}).Phys.Router, probesOf(deep)...)

	// §4.1 router.
	zipf := data.NewDatabase()
	zipf.Put(workload.Zipf("S1", 4000, 1<<20, 1, 1.6, 300, 4))
	zipf.Put(workload.Zipf("S2", 4000, 1<<20, 1, 1.6, 300, 5))
	jp := skew.PlanJoin(query.Join2(), zipf, skew.JoinConfig{P: 32, Seed: 2})
	if jp.NumH12 == 0 {
		t.Fatal("zipf join planned no jointly heavy hitter")
	}
	checkRouter(t, "join/zipf", jp.Phys.Router, probesOf(zipf)...)

	// One key of each §4.1 class: the broadcast side of the H1 and H2 blocks
	// compiles to bulk Dests, on the skew join and on the one-step pipeline
	// that shares its router.
	mixed := data.NewDatabase()
	mixed.Put(workload.PlantedHeavy("S1", 5000, 1<<20, 1, []workload.HeavySpec{{Value: 1, Count: 1500}, {Value: 2, Count: 800}, {Value: 3, Count: 60}}, 1))
	mixed.Put(workload.PlantedHeavy("S2", 5000, 1<<20, 1, []workload.HeavySpec{{Value: 1, Count: 1500}, {Value: 2, Count: 60}, {Value: 3, Count: 800}}, 2))
	mixedProbes := probesOf(mixed)
	mjp := skew.PlanJoin(query.Join2(), mixed, skew.JoinConfig{P: 16, Seed: 1})
	if mjp.NumH1 != 1 || mjp.NumH2 != 1 || mjp.NumH12 != 1 {
		t.Fatalf("mixed join2 planned H1/H2/H12 = %d/%d/%d, want one of each", mjp.NumH1, mjp.NumH2, mjp.NumH12)
	}
	checkRouter(t, "join/mixed", mjp.Phys.Router, mixedProbes...)
	mpp := rounds.PlanPipeline(query.Join2(), mixed, rounds.Config{P: 16, Seed: 1, SkewAware: true})
	checkRouter(t, "step/mixed", mpp.Pipe.Stages[0].Plan.Router, mixedProbes...)

	// Step routers: a heavy single-column key (stage 1 of the zipf
	// triangle), a stage with nothing heavy (its stage 2, where the
	// dictionary is nil and no key is probed), and a heavy two-column key.
	tri := data.NewDatabase()
	tri.Put(workload.Zipf("S1", 4000, 1<<20, 1, 1.4, 300, 6))
	tri.Put(workload.Zipf("S2", 4000, 1<<20, 0, 1.4, 300, 7))
	tri.Put(workload.Zipf("S3", 4000, 1<<20, 1, 1.2, 300, 8))
	pp := rounds.PlanPipeline(query.Triangle(), tri, rounds.Config{P: 32, Seed: 1, SkewAware: true})
	if v := pp.Pipe.Stages[0].Plan.Virtual; v <= 32 {
		t.Fatalf("zipf triangle stage 1 has %d virtual servers: no heavy key planned", v)
	}
	checkRouter(t, "step/zipf-stage1", pp.Pipe.Stages[0].Plan.Router, probesOf(tri)[:2]...)
	tmp := data.NewRelation(pp.Logical.Steps[1].Left, 3, 1<<20) // S1 ⋈ S2, made up
	for i := 0; i < 300; i++ {
		tmp.Add(int64(rng.Intn(300)), int64(rng.Intn(300)), int64(rng.Intn(300)))
	}
	checkRouter(t, "step/zipf-stage2", pp.Pipe.Stages[1].Plan.Router, tmp, probesOf(tri)[2])

	pair := data.NewDatabase()
	ra := data.NewRelation("A", 3, 10000)
	rb := data.NewRelation("B", 3, 10000)
	for i := int64(0); i < 60; i++ {
		ra.Add(1, 2, 100+i) // the key (1,2) is heavy on both sides
		rb.Add(1, 2, 200+i)
		ra.Add(10+i, 20+i, 300+i)
		rb.Add(10+i, 20+i, 400+i)
	}
	pair.Put(ra)
	pair.Put(rb)
	pq := query.MustParse("q(a,b,c,d) = A(a,b,c), B(a,b,d)")
	pairPlan := rounds.PlanPipeline(pq, pair, rounds.Config{P: 8, Seed: 3, SkewAware: true})
	if v := pairPlan.Pipe.Stages[0].Plan.Virtual; v <= 8 {
		t.Fatalf("pair join has %d virtual servers: the two-column key was not planned heavy", v)
	}
	checkRouter(t, "step/two-column-key", pairPlan.Pipe.Stages[0].Plan.Router, probesOf(pair)...)
}
