package skew

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/workload"
)

// joinDB builds a Join2 database: S1(x,z), S2(y,z), z at column 1.
func joinDB(s1, s2 *data.Relation) *data.Database {
	db := data.NewDatabase()
	s1c := s1.Clone()
	s1c.Name = "S1"
	s2c := s2.Clone()
	s2c.Name = "S2"
	db.Put(s1c)
	db.Put(s2c)
	return db
}

func reference(db *data.Database) []data.Tuple {
	return join.Join(query.Join2(), join.FromDatabase(db))
}

// execute runs a one-round plan for tests, route-only when skip is set: an error
// fails the test.
func execute(t *testing.T, plan *exec.PhysicalPlan, db *data.Database, skip bool) exec.Result {
	t.Helper()
	res, err := exec.Execute(exec.OneRound(plan), db, exec.Config{SkipCompute: skip})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runJoin plans the Join2 skew join over db and executes it.
func runJoin(t *testing.T, db *data.Database, cfg JoinConfig, skip bool) (*JoinPlan, exec.Result) {
	t.Helper()
	jp := PlanJoin(query.Join2(), db, cfg)
	return jp, execute(t, jp.Phys, db, skip)
}

// vanillaLoad is the max load of the standard hash join on z — HyperCube
// shares (1, 1, p) — the baseline skew breaks (Example 3.3).
func vanillaLoad(t *testing.T, db *data.Database, p int, seed uint64) int64 {
	t.Helper()
	hc := hypercube.BuildPlan(query.Join2(), db, hypercube.Config{P: p, Seed: seed, Shares: []int{1, 1, p}})
	return execute(t, hc.Phys, db, true).MaxLoadBits()
}

func TestRunJoinCorrectUniform(t *testing.T) {
	db := joinDB(
		workload.Uniform("S1", 2, 500, 60, 1),
		workload.Uniform("S2", 2, 500, 60, 2),
	)
	_, res := runJoin(t, db, JoinConfig{P: 16, Seed: 3}, false)
	if !join.EqualTupleSets(res.Output, reference(db)) {
		t.Errorf("skew join wrong on uniform data: got %d, want %d tuples",
			len(res.Output), len(reference(db)))
	}
}

func TestRunJoinCorrectSingleHeavyBoth(t *testing.T) {
	// All z equal: one hitter heavy in both relations (pure cartesian).
	db := joinDB(
		workload.SingleValue("S1", 2, 300, 1000, 1, 7, 1),
		workload.SingleValue("S2", 2, 200, 1000, 1, 7, 2),
	)
	jp, res := runJoin(t, db, JoinConfig{P: 16, Seed: 5}, false)
	want := reference(db)
	if len(want) != 300*200 {
		t.Fatalf("reference size %d, want 60000", len(want))
	}
	if !join.EqualTupleSets(res.Output, want) {
		t.Errorf("skew join wrong on H12 case: got %d tuples", len(res.Output))
	}
	if jp.NumH12 != 1 || jp.NumH1 != 0 || jp.NumH2 != 0 {
		t.Errorf("classification wrong: H12=%d H1=%d H2=%d", jp.NumH12, jp.NumH1, jp.NumH2)
	}
}

func TestRunJoinCorrectOneSidedHeavy(t *testing.T) {
	// Value 9 heavy in S1 only; S2 has it exactly once.
	s1 := workload.PlantedHeavy("S1", 400, 10000, 1, []workload.HeavySpec{{Value: 9, Count: 200}}, 3)
	s2 := workload.PlantedHeavy("S2", 400, 10000, 1, []workload.HeavySpec{{Value: 9, Count: 1}}, 4)
	db := joinDB(s1, s2)
	jp, res := runJoin(t, db, JoinConfig{P: 8, Seed: 6}, false)
	if !join.EqualTupleSets(res.Output, reference(db)) {
		t.Errorf("skew join wrong on H1 case: got %d, want %d",
			len(res.Output), len(reference(db)))
	}
	if jp.NumH1 != 1 {
		t.Errorf("H1 = %d, want 1 (H2=%d H12=%d)", jp.NumH1, jp.NumH2, jp.NumH12)
	}
}

func TestRunJoinCorrectMixedClasses(t *testing.T) {
	// Hitters of all three classes plus light tuples.
	s1 := workload.PlantedHeavy("S1", 600, 100000, 1, []workload.HeavySpec{
		{Value: 1, Count: 150}, // H12 (also heavy in S2)
		{Value: 2, Count: 120}, // H1 only
	}, 7)
	s2 := workload.PlantedHeavy("S2", 600, 100000, 1, []workload.HeavySpec{
		{Value: 1, Count: 100}, // H12
		{Value: 3, Count: 140}, // H2 only
	}, 8)
	db := joinDB(s1, s2)
	jp, res := runJoin(t, db, JoinConfig{P: 8, Seed: 9}, false)
	if !join.EqualTupleSets(res.Output, reference(db)) {
		t.Errorf("skew join wrong on mixed case: got %d, want %d",
			len(res.Output), len(reference(db)))
	}
	if jp.NumH12 != 1 || jp.NumH1 != 1 || jp.NumH2 != 1 {
		t.Errorf("classes: H12=%d H1=%d H2=%d, want 1 each", jp.NumH12, jp.NumH1, jp.NumH2)
	}
}

func TestRunJoinCorrectZipf(t *testing.T) {
	db := joinDB(
		workload.Zipf("S1", 2000, 100000, 1, 1.8, 500, 11),
		workload.Zipf("S2", 2000, 100000, 1, 1.8, 500, 12),
	)
	jp, res := runJoin(t, db, JoinConfig{P: 32, Seed: 13}, false)
	if !join.EqualTupleSets(res.Output, reference(db)) {
		t.Errorf("skew join wrong on zipf: got %d, want %d",
			len(res.Output), len(reference(db)))
	}
	if jp.NumH12 == 0 {
		t.Error("zipf(1.8) should produce jointly-heavy hitters")
	}
}

func TestRunJoinBeatsVanillaOnSkew(t *testing.T) {
	// Example 3.3 / §4.1 headline: under heavy skew, the skew-aware join's
	// max load is far below the vanilla hash join's Ω(m) load.
	m := 3000
	db := joinDB(
		workload.SingleValue("S1", 2, m, 100000, 1, 7, 1),
		workload.SingleValue("S2", 2, m, 100000, 1, 7, 2),
	)
	p := 64
	_, res := runJoin(t, db, JoinConfig{P: p, Seed: 3}, true)
	vanillaMax := vanillaLoad(t, db, p, 3)
	// Vanilla sends everything to one server: load = 2m tuples worth.
	bitsPer := db.MustGet("S1").BitsPerTuple()
	if vanillaMax < int64(m)*bitsPer {
		t.Errorf("vanilla load %d should be >= m (it hashes all to one server)", vanillaMax)
	}
	if res.MaxLoadBits()*4 > vanillaMax {
		t.Errorf("skew join (%d) not clearly better than vanilla (%d)", res.MaxLoadBits(), vanillaMax)
	}
}

// TestRunJoinLoadNearPrediction checks Eq. (10): the measured virtual load
// is within O(log p) of the predicted L on every degree pattern, and on
// skewed data it never exceeds the hash join's (§4.1's table).
func TestRunJoinLoadNearPrediction(t *testing.T) {
	const m, p, domain = 4000, 32, 1 << 21
	for _, c := range []struct {
		name   string
		s1, s2 *data.Relation
		seed   uint64
		skewed bool
	}{
		{"zipf_1.5", workload.Zipf("S1", 5000, 1000000, 1, 1.5, 1000, 21), workload.Zipf("S2", 5000, 1000000, 1, 1.5, 1000, 22), 23, false},
		{"zipf_1.2", workload.Zipf("S1", m, domain, 1, 1.2, m/4, 1), workload.Zipf("S2", m, domain, 1, 1.2, m/4, 2), 17, true},
		{"zipf_2.0", workload.Zipf("S1", m, domain, 1, 2.0, m/4, 3), workload.Zipf("S2", m, domain, 1, 2.0, m/4, 4), 17, true},
		{"single_value", workload.SingleValue("S1", 2, m, domain, 1, 7, 5), workload.SingleValue("S2", 2, m, domain, 1, 7, 6), 17, true},
		{"matching", workload.Matching("S1", 2, m, domain, 7), workload.Matching("S2", 2, m, domain, 8), 17, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := joinDB(c.s1, c.s2)
			jp, res := runJoin(t, db, JoinConfig{P: p, Seed: c.seed}, true)
			if jp.PredictedBits <= 0 {
				t.Fatal("no prediction")
			}
			// O(log p) slack: 12 is below 10·ln 32 ≈ 34.7.
			ratio := float64(res.MaxLoadBits()) / jp.PredictedBits
			if ratio < 0.05 || ratio > 12 {
				t.Errorf("measured/predicted = %.2f, want in [0.05, 12] (Eq. 10)", ratio)
			}
			if vanilla := vanillaLoad(t, db, p, c.seed); c.skewed && res.MaxLoadBits() > vanilla {
				t.Errorf("skew join %d bits > hash join %d bits", res.MaxLoadBits(), vanilla)
			}
			t.Logf("measured/predicted = %.2f", ratio)
		})
	}
}

// TestRunJoinMeetsResidualBound checks Example 4.8 from the algorithm's
// side: with planted joint heavy hitters the residual bound on {z} beats
// the cardinality-only bound, and the skew join's load is within O(log p)
// of it; on matchings the residual bound does not beat the simple one.
// (The bound's formula is bounds.TestResidualLower*Example48.)
func TestRunJoinMeetsResidualBound(t *testing.T) {
	const m, p, domain = 4096, 16, 1 << 21
	q := query.Join2()
	lower := func(db *data.Database) (simple, residual float64) {
		bits := []float64{float64(db.MustGet("S1").Bits()), float64(db.MustGet("S2").Bits())}
		simple, _ = bounds.SimpleLower(q, bits, p)
		residual, _ = bounds.ResidualLower(q, query.NewVarSet(2), db, p)
		return simple, residual
	}
	hv := []workload.HeavySpec{{Value: 1, Count: m / 4}, {Value: 2, Count: m / 8}}
	planted := joinDB(workload.PlantedHeavy("S1", m, domain, 1, hv, 1), workload.PlantedHeavy("S2", m, domain, 1, hv, 2))
	simple, residual := lower(planted)
	if residual <= simple {
		t.Errorf("planted: residual bound %.0f not above simple %.0f", residual, simple)
	}
	_, res := runJoin(t, planted, JoinConfig{P: p, Seed: 23}, true)
	if r := float64(res.MaxLoadBits()) / residual; r < 0.1 || r > 10*math.Log(p) {
		t.Errorf("planted: skew join max bits / residual = %.2f, want in [0.1, 10 ln p]", r)
	}
	simple, residual = lower(joinDB(workload.Matching("S1", 2, m, domain, 3), workload.Matching("S2", 2, m, domain, 4)))
	if residual > 1.01*simple {
		t.Errorf("matching: residual bound %.0f above simple %.0f", residual, simple)
	}
}

func TestRunJoinVirtualServersTheta(t *testing.T) {
	db := joinDB(
		workload.Zipf("S1", 2000, 100000, 1, 2.0, 300, 31),
		workload.Zipf("S2", 2000, 100000, 1, 2.0, 300, 32),
	)
	p := 16
	jp, _ := runJoin(t, db, JoinConfig{P: p, Seed: 33}, true)
	// Θ(p): between p and a small multiple of p (each of ≤3p hitter groups
	// gets ceil rounding slack).
	if jp.Phys.Virtual < p || jp.Phys.Virtual > 10*p+100 {
		t.Errorf("virtual servers = %d, want Θ(p) around %d", jp.Phys.Virtual, p)
	}
}

func TestRunJoinEmptyRelations(t *testing.T) {
	db := data.NewDatabase()
	db.Put(data.NewRelation("S1", 2, 10))
	db.Put(data.NewRelation("S2", 2, 10))
	_, res := runJoin(t, db, JoinConfig{P: 4, Seed: 1}, false)
	if len(res.Output) != 0 {
		t.Error("join of empty relations should be empty")
	}
}

func TestRunJoinPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PlanJoin(query.Join2(), data.NewDatabase(), JoinConfig{P: 0})
}

func TestByClassLightBoundedByMOverP(t *testing.T) {
	// The light class is a plain hash join: its max load is O(log p · m/p)
	// bits on light-only data.
	db := joinDB(
		workload.Matching("S1", 2, 4000, 1000000, 1),
		workload.Matching("S2", 2, 4000, 1000000, 2),
	)
	p := 16
	jp, res := runJoin(t, db, JoinConfig{P: p, Seed: 3}, true)
	bitsPer := db.MustGet("S1").BitsPerTuple()
	budget := 8 * int64(4000/p) * bitsPer
	if jp.NumH1+jp.NumH2+jp.NumH12 != 0 {
		t.Errorf("no heavy hitters expected: H1 %d, H2 %d, H12 %d", jp.NumH1, jp.NumH2, jp.NumH12)
	}
	if res.MaxLoadBits() > budget {
		t.Errorf("light load %d exceeds budget %d", res.MaxLoadBits(), budget)
	}
}
