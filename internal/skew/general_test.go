package skew

import (
	"testing"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

func generalDB(q *query.Query, rels ...*data.Relation) *data.Database {
	db := data.NewDatabase()
	for _, r := range rels {
		db.Put(r)
	}
	return db
}

func refJoin(q *query.Query, db *data.Database) []data.Tuple {
	return join.Join(q, join.FromDatabase(db))
}

// runGeneral plans the §4.2 algorithm for q over db and executes it.
func runGeneral(t *testing.T, q *query.Query, db *data.Database, cfg GeneralConfig, skip bool) (*GeneralPlan, exec.Result) {
	t.Helper()
	gp := PlanGeneral(q, db, cfg)
	return gp, execute(t, gp.Phys, db, skip)
}

func TestRunGeneralJoin2Uniform(t *testing.T) {
	q := query.Join2()
	db := generalDB(q,
		workload.Uniform("S1", 2, 400, 80, 1),
		workload.Uniform("S2", 2, 400, 80, 2),
	)
	_, res := runGeneral(t, q, db, GeneralConfig{P: 16, Seed: 3}, false)
	want := join.Dedup(refJoin(q, db))
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("general algorithm wrong on uniform join2: got %d, want %d",
			len(res.Output), len(want))
	}
}

func TestRunGeneralJoin2SkewedBoth(t *testing.T) {
	q := query.Join2()
	db := generalDB(q,
		workload.SingleValue("S1", 2, 200, 10000, 1, 7, 1),
		workload.SingleValue("S2", 2, 150, 10000, 1, 7, 2),
	)
	gp, res := runGeneral(t, q, db, GeneralConfig{P: 16, Seed: 5}, false)
	want := refJoin(q, db)
	if len(want) != 200*150 {
		t.Fatalf("reference = %d", len(want))
	}
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("general algorithm wrong on skewed join2: got %d, want %d",
			len(res.Output), len(want))
	}
	if gp.NumBinCombos < 2 {
		t.Errorf("expected multiple bin combos on skewed data, got %d", gp.NumBinCombos)
	}
}

func TestRunGeneralJoin2ZipfMixed(t *testing.T) {
	q := query.Join2()
	db := generalDB(q,
		workload.Zipf("S1", 1500, 100000, 1, 1.7, 300, 11),
		workload.Zipf("S2", 1500, 100000, 1, 1.7, 300, 12),
	)
	_, res := runGeneral(t, q, db, GeneralConfig{P: 16, Seed: 13}, false)
	want := refJoin(q, db)
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("general algorithm wrong on zipf join2: got %d, want %d",
			len(res.Output), len(want))
	}
}

func TestRunGeneralTriangleUniform(t *testing.T) {
	q := query.Triangle()
	db := generalDB(q,
		workload.Uniform("S1", 2, 300, 40, 21),
		workload.Uniform("S2", 2, 300, 40, 22),
		workload.Uniform("S3", 2, 300, 40, 23),
	)
	_, res := runGeneral(t, q, db, GeneralConfig{P: 8, Seed: 24}, false)
	want := refJoin(q, db)
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("general algorithm wrong on uniform triangle: got %d, want %d",
			len(res.Output), len(want))
	}
}

func TestRunGeneralTriangleSkewedVertex(t *testing.T) {
	// One popular node: value 0 very frequent in the first column of S1
	// and second column of S3 — a skewed vertex of the triangle.
	q := query.Triangle()
	s1 := workload.PlantedHeavy("S1", 400, 10000, 0, []workload.HeavySpec{{Value: 0, Count: 120}}, 31)
	s2 := workload.Uniform("S2", 2, 400, 60, 32)
	s3 := workload.PlantedHeavy("S3", 400, 10000, 1, []workload.HeavySpec{{Value: 0, Count: 120}}, 33)
	db := generalDB(q, s1, s2, s3)
	_, res := runGeneral(t, q, db, GeneralConfig{P: 8, Seed: 34}, false)
	want := refJoin(q, db)
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("general algorithm wrong on skewed triangle: got %d, want %d",
			len(res.Output), len(want))
	}
}

func TestRunGeneralStarSkewedCenter(t *testing.T) {
	// Star query with a heavy center value.
	q := query.Star(2)
	s1 := workload.PlantedHeavy("S1", 300, 10000, 0, []workload.HeavySpec{{Value: 5, Count: 100}}, 41)
	s2 := workload.PlantedHeavy("S2", 300, 10000, 0, []workload.HeavySpec{{Value: 5, Count: 80}}, 42)
	db := generalDB(q, s1, s2)
	_, res := runGeneral(t, q, db, GeneralConfig{P: 8, Seed: 43}, false)
	want := refJoin(q, db)
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("general algorithm wrong on skewed star: got %d, want %d",
			len(res.Output), len(want))
	}
}

func TestRunGeneralLoadBeatsVanillaUnderSkew(t *testing.T) {
	q := query.Join2()
	m := 2000
	db := generalDB(q,
		workload.SingleValue("S1", 2, m, 100000, 1, 7, 51),
		workload.SingleValue("S2", 2, m, 100000, 1, 7, 52),
	)
	p := 64
	_, res := runGeneral(t, q, db, GeneralConfig{P: p, Seed: 53}, true)
	vanillaMax := vanillaLoad(t, db, p, 53)
	if res.MaxVirtualBits*3 > vanillaMax {
		t.Errorf("general (%d bits) not clearly better than vanilla (%d bits)",
			res.MaxVirtualBits, vanillaMax)
	}
}

func TestRunGeneralDeterministic(t *testing.T) {
	q := query.Join2()
	db := generalDB(q,
		workload.Zipf("S1", 800, 100000, 1, 1.8, 200, 61),
		workload.Zipf("S2", 800, 100000, 1, 1.8, 200, 62),
	)
	pa, a := runGeneral(t, q, db, GeneralConfig{P: 16, Seed: 7}, false)
	pb, b := runGeneral(t, q, db, GeneralConfig{P: 16, Seed: 7}, false)
	if a.MaxVirtualBits != b.MaxVirtualBits || len(a.Output) != len(b.Output) ||
		pa.Phys.Virtual != pb.Phys.Virtual {
		t.Error("same seed gave different general runs")
	}
}

func TestInspectBinCombos(t *testing.T) {
	q := query.Join2()
	db := generalDB(q,
		workload.SingleValue("S1", 2, 200, 10000, 1, 7, 71),
		workload.SingleValue("S2", 2, 150, 10000, 1, 7, 72),
	)
	infos := InspectBinCombos(q, db, 16, new(stats.Pass))
	if len(infos) < 2 {
		t.Fatalf("expected B∅ plus at least one heavy combo, got %d", len(infos))
	}
	// B∅ must be present with |C'| = 1.
	foundEmpty := false
	foundZ := false
	for _, in := range infos {
		if len(in.Vars) == 0 {
			foundEmpty = true
			if in.CSize != 1 {
				t.Errorf("B∅ |C'| = %d, want 1", in.CSize)
			}
		}
		if len(in.Vars) == 1 && in.Vars[0] == 2 { // variable z
			foundZ = true
			if in.CSize < 1 {
				t.Error("z-combo should hold the planted hitter")
			}
		}
	}
	if !foundEmpty {
		t.Error("missing B∅")
	}
	if !foundZ {
		t.Error("missing bin combination on {z} for the planted hitter")
	}
}

func TestRunGeneralPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PlanGeneral(query.Join2(), data.NewDatabase(), GeneralConfig{P: 1})
}

func TestRunGeneralEmptyDatabase(t *testing.T) {
	q := query.Join2()
	db := generalDB(q,
		data.NewRelation("S1", 2, 10),
		data.NewRelation("S2", 2, 10),
	)
	_, res := runGeneral(t, q, db, GeneralConfig{P: 4, Seed: 1}, false)
	if len(res.Output) != 0 {
		t.Error("empty database should produce no answers")
	}
}

func TestRunGeneralTernaryAtomSkewed(t *testing.T) {
	// Ternary atom with a heavy value on the shared variable z.
	q := query.MustParse("q(x,y,z,w) = R(x,y,z), S(z,w)")
	db := data.NewDatabase()
	r := data.NewRelation("R", 3, 10000)
	// 60 tuples share z=5; 60 light.
	for i := int64(0); i < 60; i++ {
		r.Add(i, i+100, 5)
		r.Add(i+200, i+300, 1000+i)
	}
	s := data.NewRelation("S", 2, 10000)
	for i := int64(0); i < 40; i++ {
		s.Add(5, i+400)
		s.Add(1000+i, i+500)
	}
	db.Put(r)
	db.Put(s)
	_, res := runGeneral(t, q, db, GeneralConfig{P: 8, Seed: 3}, false)
	want := refJoin(q, db)
	if len(want) == 0 {
		t.Fatal("instance has no answers")
	}
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("ternary general: %d vs %d tuples", len(res.Output), len(want))
	}
}

func TestRunGeneralDeepBinCombos(t *testing.T) {
	// A ternary atom with a heavy (x,z) PAIR drives the C'(B) induction to
	// depth 2: x'={z} extends through R's overweight (x,z) hitter into
	// x={x,z} (Appendix D's inductive step).
	q := query.MustParse("q(x,y,z,w) = R(x,y,z), S(z,w)")
	db := data.NewDatabase()
	r := data.NewRelation("R", 3, 10000)
	for i := int64(0); i < 48; i++ {
		r.Add(7, 100+i, 5) // pair (x=7, z=5) occurs 48 times
	}
	for i := int64(0); i < 48; i++ {
		r.Add(500+i, 600+i, 1000+i) // light remainder
	}
	s := data.NewRelation("S", 2, 10000)
	for i := int64(0); i < 40; i++ {
		s.Add(5, 200+i) // z=5 heavy in S too
		s.Add(1000+i, 300+i)
	}
	db.Put(r)
	db.Put(s)

	infos := InspectBinCombos(q, db, 8, new(stats.Pass))
	deep := false
	for _, in := range infos {
		if len(in.Vars) >= 2 {
			deep = true
		}
	}
	if !deep {
		t.Errorf("expected a |x| >= 2 bin combination, got %+v", infos)
	}

	_, res := runGeneral(t, q, db, GeneralConfig{P: 8, Seed: 5}, false)
	want := refJoin(q, db)
	if len(want) == 0 {
		t.Fatal("instance has no answers")
	}
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("deep-combo run wrong: %d vs %d tuples", len(res.Output), len(want))
	}
}

func TestRunGeneralByComboAccounting(t *testing.T) {
	q := query.Join2()
	db := generalDB(q,
		workload.SingleValue("S1", 2, 400, 10000, 1, 7, 1),
		workload.SingleValue("S2", 2, 400, 10000, 1, 7, 2),
	)
	gp, res := runGeneral(t, q, db, GeneralConfig{P: 16, Seed: 5}, true)
	byCombo := gp.ComboLoads(res.PerServerBits)
	if len(byCombo) != gp.NumBinCombos {
		t.Fatalf("ByCombo has %d entries, want %d", len(byCombo), gp.NumBinCombos)
	}
	var max int64
	for _, c := range byCombo {
		if c.MaxBits > max {
			max = c.MaxBits
		}
		if c.Predicted <= 0 || c.CSize < 1 {
			t.Errorf("combo %+v incomplete", c)
		}
	}
	if max != res.MaxVirtualBits {
		t.Errorf("per-combo max %d != overall %d", max, res.MaxVirtualBits)
	}
	// Corollary 4.4 shape: each combo's load within polylog of
	// max(m_j/p, p^λ).
	mjOverP := float64(db.MustGet("S1").Bits()) / 16
	for _, c := range byCombo {
		budget := c.Predicted
		if mjOverP > budget {
			budget = mjOverP
		}
		if float64(c.MaxBits) > 40*budget {
			t.Errorf("combo vars=%v load %d far above its Cor 4.4 budget %.0f",
				c.Vars, c.MaxBits, budget)
		}
	}
}

// ComboLoads breaks an execution's per-virtual-server loads
// (exec.Result.PerServerBits of a run of gp.Phys) down per bin combination —
// Corollary 4.4's per-combination statement: MaxBits is the max over the
// combination's servers. The metadata is deep-copied: plans are reused
// across executions, so callers must not be able to mutate the cached slices.
func (gp *GeneralPlan) ComboLoads(perServerBits []int64) []ComboLoad {
	out := make([]ComboLoad, len(gp.comboMeta))
	for i, cm := range gp.comboMeta {
		cm.Vars = append([]int(nil), cm.Vars...)
		cm.Bins = append([]int(nil), cm.Bins...)
		out[i] = cm
	}
	for id, bits := range perServerBits {
		for pi, vr := range gp.comboRanges {
			if id >= vr.lo && id < vr.hi && bits > out[pi].MaxBits {
				out[pi].MaxBits = bits
			}
		}
	}
	return out
}
