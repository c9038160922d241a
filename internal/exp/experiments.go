package exp

import (
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hashing"
	"repro/internal/hypercube"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/skew"
	"repro/internal/workload"
)

// sizes returns (m, p) for a scale.
func sizes(s Scale, quickM, quickP, fullM, fullP int) (int, int) {
	if s == Quick {
		return quickM, quickP
	}
	return fullM, fullP
}

// joinDB assembles a Join2 database from two binary relations.
func joinDB(s1, s2 *data.Relation) *data.Database {
	db := data.NewDatabase()
	a := s1.Clone()
	a.Name = "S1"
	b := s2.Clone()
	b.Name = "S2"
	db.Put(a)
	db.Put(b)
	return db
}

func uniformDB(q *query.Query, ms []int, domain int64, seed int64) *data.Database {
	specs := make([]workload.AtomSpec, q.NumAtoms())
	for j, a := range q.Atoms {
		specs[j] = workload.AtomSpec{Name: a.Name, Arity: a.Arity(), M: ms[j], Domain: domain}
	}
	return workload.ForQuery(specs, seed)
}

// within reports whether v/ref lies in [lo, hi].
func within(v, ref, lo, hi float64) bool {
	if ref == 0 {
		return v == 0
	}
	r := v / ref
	return r >= lo && r <= hi
}

// route runs plan over db without the local join: the experiments read
// loads, and routing alone determines them.
func route(plan *exec.PhysicalPlan, db *data.Database) exec.Result {
	res, _ := exec.Run(plan, db, exec.Config{SkipCompute: true}) // no ctx, no faults: never errors
	return res
}

// E1ExampleJoinShares reproduces Example 3.3: the join q(x,y,z) =
// S1(x,z), S2(y,z) under two share allocations — the cube (p^⅓,p^⅓,p^⅓)
// and the hash join (1,1,p) — on skew-free and fully-skewed data.
func E1ExampleJoinShares(s Scale) Table {
	m, p := sizes(s, 4000, 64, 40000, 64)
	pf := float64(p)
	domain := int64(1 << 21)
	cube := hypercube.EqualShares(3, p)
	hashJ := []int{1, 1, p}

	skewFree := joinDB(
		workload.Matching("S1", 2, m, domain, 1),
		workload.Matching("S2", 2, m, domain, 2),
	)
	skewed := joinDB(
		workload.SingleValue("S1", 2, m, domain, 1, 7, 3),
		workload.SingleValue("S2", 2, m, domain, 1, 7, 4),
	)
	q := query.Join2()
	mf := float64(m)
	rows := [][]string{}
	ok := true
	run := func(label string, db *data.Database, shares []int, pred float64) {
		res := route(hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: 9, Shares: shares}).Phys, db)
		got := float64(res.Loads.MaxTuples)
		// Skew-free cases should be near prediction; skewed hash join is
		// exactly the degenerate case so allow wide slack upward only.
		good := within(got, pred, 0.2, 8*math.Log(pf))
		if !good {
			ok = false
		}
		rows = append(rows, []string{label, fmt.Sprint(shares), f1(got), f1(pred), f2(got / pred)})
	}
	run("skew-free, cube", skewFree, cube, 2*mf/math.Pow(pf, 2.0/3))
	run("skew-free, hash", skewFree, hashJ, 2*mf/pf)
	run("skewed, cube", skewed, cube, 2*mf/math.Pow(pf, 1.0/3))
	run("skewed, hash", skewed, hashJ, 2*mf)
	return Table{
		ID: "E1", Title: "HyperCube share choices on the 2-join (skew-free vs skewed)",
		PaperRef: "Example 3.3",
		Claim:    "cube shares give O(m/p^{2/3}) skew-free and O(m/p^{1/3}) under any skew; hash join gives O(m/p) skew-free but Ω(m) skewed",
		Columns:  []string{"case", "shares", "max load (tuples)", "predicted", "ratio"},
		Rows:     rows,
		OK:       ok,
	}
}

// E2TrianglePackingTable reproduces the table of Example 3.7: the four
// non-dominated packing vertices of C3 and the load bound each induces,
// plus the measured HC load against their maximum.
func E2TrianglePackingTable(s Scale) Table {
	m, p := sizes(s, 3000, 64, 20000, 64)
	q := query.Triangle()
	ms := []int{m, m / 2, m / 4}
	db := uniformDB(q, ms, 1<<21, 5)
	bitsM := make([]float64, 3)
	for j, a := range q.Atoms {
		bitsM[j] = float64(db.MustGet(a.Name).Bits())
	}
	best, table := bounds.SimpleLower(q, bitsM, p)
	rows := [][]string{}
	for _, row := range table {
		rows = append(rows, []string{
			fmt.Sprintf("u=%v", row.U), fk(row.Bound),
		})
	}
	res := route(hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: 7}).Phys, db)
	got := float64(res.Loads.MaxBits)
	ratio := got / best
	ok := len(table) == 4 && ratio >= 0.2 && ratio <= 8*math.Pow(math.Log(float64(p)), 2)
	rows = append(rows, []string{"measured HC load (bits)", fk(got)})
	rows = append(rows, []string{"measured / max bound", f2(ratio)})
	return Table{
		ID: "E2", Title: "pk(C3) packing table and the induced load bounds",
		PaperRef: "Example 3.7, Theorem 3.6",
		Claim:    "pk(C3) = {(1/2,1/2,1/2),(1,0,0),(0,1,0),(0,0,1)}; the optimal load is the max of the four bounds",
		Columns:  []string{"packing / quantity", "bound (bits)"},
		Rows:     rows,
		Notes:    fmt.Sprintf("cardinalities m=(%d,%d,%d), p=%d", ms[0], ms[1], ms[2], p),
		OK:       ok,
	}
}

// E3MatchingBounds validates Theorems 3.4/3.5/3.6 across the query suite:
// on skew-free data the measured HC load matches L_lower within polylog(p),
// and the LP upper bound equals the vertex-enumeration lower bound.
func E3MatchingBounds(s Scale) Table {
	m, p := sizes(s, 3000, 64, 25000, 64)
	suite := []struct {
		q  *query.Query
		ms []int
	}{
		{query.Cartesian(2), []int{m, m / 4}},
		{query.Join2(), []int{m, m / 2}},
		{query.Path(3), []int{m, m / 2, m / 4}},
		{query.Triangle(), []int{m, m, m}},
		{query.Star(3), []int{m, m / 2, m / 4}},
	}
	rows := [][]string{}
	ok := true
	for _, c := range suite {
		db := dbMatching(c.q, c.ms)
		bitsM := make([]float64, c.q.NumAtoms())
		for j, a := range c.q.Atoms {
			bitsM[j] = float64(db.MustGet(a.Name).Bits())
		}
		lower, _ := bounds.SimpleLower(c.q, bitsM, p)
		hc := hypercube.BuildPlan(c.q, db, hypercube.Config{P: p, Seed: 11})
		upper := hc.PredictedBits
		got := float64(route(hc.Phys, db).Loads.MaxBits)
		thmOK := within(upper, lower, 0.999, 1.001)
		loadOK := within(got, lower, 0.15, 10*math.Pow(math.Log(float64(p)), float64(c.q.NumVars())))
		if !thmOK || !loadOK {
			ok = false
		}
		rows = append(rows, []string{
			c.q.Name, fk(lower), fk(upper), fk(got), f2(got / lower),
			fmt.Sprintf("%v/%v", thmOK, loadOK),
		})
	}
	return Table{
		ID: "E3", Title: "Matching upper/lower bounds on skew-free data (query suite)",
		PaperRef: "Theorems 1.1, 3.4, 3.5, 3.6",
		Claim:    "L_upper(LP) = L_lower(pk vertices); measured HC load within polylog(p) of both",
		Columns:  []string{"query", "L_lower (bits)", "L_upper (bits)", "measured (bits)", "meas/lower", "thmOK/loadOK"},
		Rows:     rows,
		OK:       ok,
	}
}

func dbMatching(q *query.Query, ms []int) *data.Database {
	db := data.NewDatabase()
	for j, a := range q.Atoms {
		db.Put(workload.Matching(a.Name, a.Arity(), ms[j], 1<<21, int64(100+j)))
	}
	return db
}

// E4HashingLemma validates Lemma 3.1 (Appendix B): grid-hash max loads for
// matchings, degree-bounded relations, and the adversarial single-value
// case.
func E4HashingLemma(s Scale) Table {
	m, _ := sizes(s, 1<<14, 0, 1<<18, 0)
	fam := hashing.NewFamily(13)
	grid := hashing.NewGrid([]int{16, 16}, fam)
	pTot := float64(grid.Size())
	rows := [][]string{}
	ok := true

	matching := workload.Matching("R", 2, m, int64(8*m), 1)
	repM := hashing.MeasureLoads(matching, grid)
	okM := within(float64(repM.Max), float64(m)/pTot, 0.5, 4)
	rows = append(rows, []string{"matching (item 2)", fi(int64(repM.Max)), f1(float64(m) / pTot), f2(repM.Overflow), fmt.Sprint(okM)})

	// Degree-bounded: z-column frequencies ≤ m/16 = m/p1 (bin-friendly).
	zipf := workload.Zipf("R", m, int64(8*m), 0, 1.4, uint64(m/64), 2)
	repZ := hashing.MeasureLoads(zipf, grid)
	lnP := math.Log(pTot)
	okZ := within(float64(repZ.Max), float64(m)/pTot, 0.5, 12*lnP*lnP)
	rows = append(rows, []string{"degree-bounded (item 3)", fi(int64(repZ.Max)), f1(float64(m) / pTot), f2(repZ.Overflow), fmt.Sprint(okZ)})

	single := workload.SingleValue("R", 2, m, int64(8*m), 0, 3, 3)
	repS := hashing.MeasureLoads(single, grid)
	// Item 4: max load ~ m/min(p_i) = m/16, far above m/p.
	okS := within(float64(repS.Max), float64(m)/16, 0.5, 4)
	rows = append(rows, []string{"single-value (item 4)", fi(int64(repS.Max)), f1(float64(m) / 16), f2(repS.Overflow), fmt.Sprint(okS)})

	ok = okM && okZ && okS
	return Table{
		ID: "E4", Title: "Hashing lemma: grid max loads by instance class",
		PaperRef: "Lemma 3.1, Appendix B",
		Claim:    "matchings load O(m/p); degree-bounded load O(polylog·m/p); adversarial load Θ(m/min p_i)",
		Columns:  []string{"instance", "max bucket load", "reference", "max/mean", "ok"},
		Rows:     rows,
		Notes:    fmt.Sprintf("m=%d tuples on a 16×16 grid", m),
		OK:       ok,
	}
}

// E5SkewJoin reproduces the §4.1 skew join: measured load versus the
// Eq. (10) prediction and versus the vanilla hash join across skew levels.
func E5SkewJoin(s Scale) Table {
	m, p := sizes(s, 4000, 32, 40000, 64)
	domain := int64(1 << 21)
	sets := []struct {
		name   string
		s1, s2 *data.Relation
		skewed bool
	}{
		{"zipf s=1.2", workload.Zipf("S1", m, domain, 1, 1.2, uint64(m/4), 1), workload.Zipf("S2", m, domain, 1, 1.2, uint64(m/4), 2), true},
		{"zipf s=2.0", workload.Zipf("S1", m, domain, 1, 2.0, uint64(m/4), 3), workload.Zipf("S2", m, domain, 1, 2.0, uint64(m/4), 4), true},
		{"single value", workload.SingleValue("S1", 2, m, domain, 1, 7, 5), workload.SingleValue("S2", 2, m, domain, 1, 7, 6), true},
		{"matching", workload.Matching("S1", 2, m, domain, 7), workload.Matching("S2", 2, m, domain, 8), false},
	}
	rows := [][]string{}
	ok := true
	for _, set := range sets {
		db := joinDB(set.s1, set.s2)
		jp := skew.PlanJoin(query.Join2(), db, skew.JoinConfig{P: p, Seed: 17})
		meas := route(jp.Phys, db).MaxVirtualBits
		// The vanilla hash join is HyperCube with shares (1, 1, p).
		vanilla := route(hypercube.BuildPlan(query.Join2(), db, hypercube.Config{P: p, Seed: 17, Shares: []int{1, 1, p}}).Phys, db).MaxVirtualBits
		ratio := float64(meas) / jp.PredictedBits
		good := ratio <= 10*math.Log(float64(p)) && ratio >= 0.05
		if set.skewed && meas > vanilla {
			good = false
		}
		if !good {
			ok = false
		}
		rows = append(rows, []string{
			set.name, fk(float64(meas)), fk(jp.PredictedBits),
			f2(ratio), fk(float64(vanilla)),
			fmt.Sprintf("%d/%d/%d", jp.NumH1, jp.NumH2, jp.NumH12),
		})
	}
	return Table{
		ID: "E5", Title: "Skew join: measured load vs Eq. (10) vs vanilla hash join",
		PaperRef: "§4.1, Eq. (10)",
		Claim:    "skew join load = O(L log p) for L = max(m1/p, m2/p, L1, L2, L12); vanilla degrades to Ω(m) under skew",
		Columns:  []string{"dataset", "skew join (bits)", "Eq.10 pred (bits)", "ratio", "vanilla (bits)", "H1/H2/H12"},
		Rows:     rows,
		Notes:    fmt.Sprintf("m=%d per relation, p=%d", m, p),
		OK:       ok,
	}
}

// E6ResidualBounds reproduces Example 4.8: residual-packing lower bounds
// dominate the simple bounds exactly when the data is skewed.
func E6ResidualBounds(s Scale) Table {
	m, p := sizes(s, 4096, 16, 32768, 64)
	domain := int64(1 << 21)
	rows := [][]string{}
	ok := true

	// Join with planted joint skew: residual on {z} should dominate.
	hv := []workload.HeavySpec{{Value: 1, Count: m / 4}, {Value: 2, Count: m / 8}}
	db := joinDB(
		workload.PlantedHeavy("S1", m, domain, 1, hv, 1),
		workload.PlantedHeavy("S2", m, domain, 1, hv, 2),
	)
	q := query.Join2()
	bitsM := []float64{float64(db.MustGet("S1").Bits()), float64(db.MustGet("S2").Bits())}
	simple, _ := bounds.SimpleLower(q, bitsM, p)
	residual, _ := bounds.ResidualLower(q, query.NewVarSet(2), db, p)
	meas := float64(route(skew.PlanJoin(q, db, skew.JoinConfig{P: p, Seed: 23}).Phys, db).MaxVirtualBits)
	okJ := residual > simple && within(meas, residual, 0.1, 10*math.Log(float64(p)))
	rows = append(rows, []string{"Join2 skewed z", fk(simple), fk(residual), fk(meas), fmt.Sprint(okJ)})
	if !okJ {
		ok = false
	}

	// Join with matching data: simple bound should win (residual ≤ simple).
	dbU := joinDB(
		workload.Matching("S1", 2, m, domain, 3),
		workload.Matching("S2", 2, m, domain, 4),
	)
	bitsU := []float64{float64(dbU.MustGet("S1").Bits()), float64(dbU.MustGet("S2").Bits())}
	simpleU, _ := bounds.SimpleLower(q, bitsU, p)
	residualU, _ := bounds.ResidualLower(q, query.NewVarSet(2), dbU, p)
	okU := residualU <= simpleU*1.01
	rows = append(rows, []string{"Join2 matching", fk(simpleU), fk(residualU), "-", fmt.Sprint(okU)})
	if !okU {
		ok = false
	}

	// Triangle with a popular vertex: residual on {x1} via packing (1,0,1).
	qc := query.Triangle()
	dbt := data.NewDatabase()
	dbt.Put(workload.PlantedHeavy("S1", m/4, domain, 0, []workload.HeavySpec{{Value: 5, Count: m / 16}}, 5))
	dbt.Put(workload.Uniform("S2", 2, m/4, 2048, 6))
	dbt.Put(workload.PlantedHeavy("S3", m/4, domain, 1, []workload.HeavySpec{{Value: 5, Count: m / 16}}, 7))
	bitsT := make([]float64, 3)
	for j, a := range qc.Atoms {
		bitsT[j] = float64(dbt.MustGet(a.Name).Bits())
	}
	simpleT, _ := bounds.SimpleLower(qc, bitsT, p)
	residualT, _ := bounds.ResidualLower(qc, query.NewVarSet(0), dbt, p)
	okT := residualT > 0
	rows = append(rows, []string{"C3 popular x1", fk(simpleT), fk(residualT), "-", fmt.Sprint(okT)})
	if !okT {
		ok = false
	}

	return Table{
		ID: "E6", Title: "Residual-packing lower bounds under known degree sequences",
		PaperRef: "Example 4.8, Theorem 4.7",
		Claim:    "skew raises the bound: L_x = (Σ_h Π M_j(h)^{u_j}/p)^{1/u} exceeds the cardinality-only bound on skewed data and never on matchings",
		Columns:  []string{"instance", "simple (bits)", "residual (bits)", "measured (bits)", "ok"},
		Rows:     rows,
		OK:       ok,
	}
}

// E7BinCombGeneral exercises the general §4.2 algorithm on skewed multiway
// joins: measured load versus max_B p^{λ(B)} and versus vanilla hashing.
func E7BinCombGeneral(s Scale) Table {
	m, p := sizes(s, 2000, 16, 12000, 64)
	domain := int64(1 << 21)
	rows := [][]string{}
	ok := true

	cases := []struct {
		name string
		q    *query.Query
		db   *data.Database
	}{
		{"join2 single-z", query.Join2(), joinDB(
			workload.SingleValue("S1", 2, m, domain, 1, 7, 1),
			workload.SingleValue("S2", 2, m, domain, 1, 7, 2))},
		{"join2 zipf", query.Join2(), joinDB(
			workload.Zipf("S1", m, domain, 1, 1.7, uint64(m/8), 3),
			workload.Zipf("S2", m, domain, 1, 1.7, uint64(m/8), 4))},
		{"C3 popular vertex", query.Triangle(), func() *data.Database {
			db := data.NewDatabase()
			db.Put(workload.PlantedHeavy("S1", m/2, domain, 0, []workload.HeavySpec{{Value: 0, Count: m / 8}}, 5))
			db.Put(workload.Uniform("S2", 2, m/2, int64(m), 6))
			db.Put(workload.PlantedHeavy("S3", m/2, domain, 1, []workload.HeavySpec{{Value: 0, Count: m / 8}}, 7))
			return db
		}()},
	}
	for _, c := range cases {
		gp := skew.PlanGeneral(c.q, c.db, skew.GeneralConfig{P: p, Seed: 29})
		meas := route(gp.Phys, c.db).MaxVirtualBits
		ratio := float64(meas) / gp.PredictedBits
		good := ratio <= 20*math.Pow(math.Log(float64(p)), 2) && gp.NumBinCombos >= 1
		if !good {
			ok = false
		}
		rows = append(rows, []string{
			c.name, fi(int64(gp.NumBinCombos)), fk(gp.PredictedBits),
			fk(float64(meas)), f2(ratio),
		})
	}
	return Table{
		ID: "E7", Title: "General bin-combination algorithm on skewed multiway joins",
		PaperRef: "§4.2, Theorem 4.6",
		Claim:    "load ≤ log^{O(1)} p · max_B p^{λ(B)} over all bin combinations",
		Columns:  []string{"case", "#combos", "max_B p^λ (bits)", "measured (bits)", "ratio"},
		Rows:     rows,
		Notes:    "overweight factor 1 (practical); see A4 for the paper's N_bc",
		OK:       ok,
	}
}

// E8ReplicationRate reproduces §5 / Example 5.2: the replication rate r
// versus reducer size L for the triangle query follows Θ(sqrt(M/L)).
func E8ReplicationRate(s Scale) Table {
	m, _ := sizes(s, 4000, 0, 30000, 0)
	q := query.Triangle()
	db := uniformDB(q, []int{m, m, m}, 1<<21, 31)
	bitsM := make([]float64, 3)
	for j, a := range q.Atoms {
		bitsM[j] = float64(db.MustGet(a.Name).Bits())
	}
	rows := [][]string{}
	type point struct{ r, l float64 }
	var pts []point
	for _, p := range []int{8, 64, 512} {
		r, maxBits := mapreduce.MeasuredReplication(q, db, p, 31)
		lb := mapreduce.ReplicationLowerBound(q, bitsM, float64(maxBits))
		rows = append(rows, []string{
			fi(int64(p)), fk(float64(maxBits)), f2(r), f2(lb), f2(r / lb),
		})
		pts = append(pts, point{r, float64(maxBits)})
	}
	// Shape check: r should scale like L^{-1/2}: for consecutive sweep
	// points, r2/r1 ≈ sqrt(L1/L2) within a factor 2.
	ok := true
	for i := 1; i < len(pts); i++ {
		gotRatio := pts[i].r / pts[i-1].r
		wantRatio := math.Sqrt(pts[i-1].l / pts[i].l)
		if !within(gotRatio, wantRatio, 0.5, 2) {
			ok = false
		}
	}
	return Table{
		ID: "E8", Title: "Replication rate vs reducer size for C3",
		PaperRef: "§5, Theorem 5.1, Example 5.2",
		Claim:    "r = Θ(sqrt(M/L)); measured r stays above the Theorem 5.1 bound and scales as L^{-1/2}",
		Columns:  []string{"p", "reducer size L (bits)", "measured r", "Thm 5.1 bound", "r/bound"},
		Rows:     rows,
		Notes:    fmt.Sprintf("m=%d per relation", m),
		OK:       ok,
	}
}
