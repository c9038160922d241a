package exp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/workload"
)

// This file holds the extension experiments beyond the DESIGN.md core
// index: E11 validates the information-theoretic machinery inside the
// Theorem 3.5 lower-bound proof, and A5 measures the sampling-based
// heavy-hitter detection the paper cites as standard practice.

// E11KnowledgeBound simulates the heart of the lower-bound argument: a
// server that receives a uniform fraction f of each relation "knows" an
// answer only when it knows all constituent tuples, so its expected
// knowledge is f^ℓ·E[|q|] — far below the budget Theorem 3.5 grants a
// load-L server, namely (L/(c·L(u,M,p)))^u·E[|q|]/p per server. The
// experiment measures known answers across f and checks (a) the theorem's
// budget is never exceeded, and (b) knowledge decays with exponent ≥ u
// (log-log slope), which is why p servers with bounded load cannot cover
// all answers.
func E11KnowledgeBound(s Scale) Table {
	m, _ := sizes(s, 3000, 0, 15000, 0)
	q := query.Triangle()
	domain := int64(256) // dense enough for a sizable answer set
	db := uniformDB(q, []int{m, m, m}, domain, 41)
	full := join.Join(q, join.FromDatabase(db))
	if len(full) == 0 {
		return Table{ID: "E11", Title: "knowledge bound", OK: false,
			Columns: []string{"error"}, Rows: [][]string{{"empty join"}}}
	}
	// Packing and constants of Theorem 3.5.
	u := []float64{0.5, 0.5, 0.5}
	uTotal := 1.5
	bitsM := make([]float64, 3)
	for j, a := range q.Atoms {
		bitsM[j] = float64(db.MustGet(a.Name).Bits())
	}
	kUM := bounds.K(u, bitsM)
	const c = 1.0 / 6 // c = (a_j − δ)/(3a_j) with a_j = 2, δ = 1

	rng := rand.New(rand.NewSource(43))
	rows := [][]string{}
	ok := true
	type pt struct{ f, known float64 }
	var pts []pt
	for _, f := range []float64{0.2, 0.4, 0.8} {
		sub := make(map[string]*data.Relation)
		loadBits := 0.0
		for _, a := range q.Atoms {
			rel := db.MustGet(a.Name)
			keep := data.NewRelation(a.Name, rel.Arity, rel.Domain)
			rel.Each(func(_ int, t data.Tuple) bool {
				if rng.Float64() < f {
					keep.Add(t...)
				}
				return true
			})
			sub[a.Name] = keep
			loadBits += float64(keep.Bits())
		}
		known := float64(len(join.Join(q, sub)))
		// Theorem 3.5 (1): a load-L server reports at most
		// L^u/(c^u·K(u,M)) · E[|q(I)|] answers in expectation.
		budget := math.Pow(loadBits, uTotal) / (math.Pow(c, uTotal) * kUM) * float64(len(full))
		good := known <= budget
		if !good {
			ok = false
		}
		rows = append(rows, []string{
			f2(f), fk(known), fk(budget), f2(known / float64(len(full))), fmt.Sprint(good),
		})
		pts = append(pts, pt{f, known})
	}
	// Log-log slope of knowledge vs f must be at least u = 1.5 (it is ≈ ℓ = 3).
	slope := math.Log(pts[len(pts)-1].known/pts[0].known) /
		math.Log(pts[len(pts)-1].f/pts[0].f)
	if slope < uTotal {
		ok = false
	}
	rows = append(rows, []string{"log-log slope", f2(slope), "≥ u = 1.50", "", fmt.Sprint(slope >= uTotal)})
	return Table{
		ID: "E11", Title: "Bounded-load servers know few answers (lower-bound machinery)",
		PaperRef: "Theorem 3.5 (1), Appendix A",
		Claim:    "a server holding an f-fraction of each relation knows ≈ f^ℓ·E[|q|] answers, within the L^u/(c^u·K(u,M))·E budget, and the decay exponent exceeds u",
		Columns:  []string{"fraction f", "known answers", "theorem budget", "known/total", "ok"},
		Rows:     rows,
		Notes:    fmt.Sprintf("C3 on m=%d per relation, domain %d, |q(I)| = %d", m, domain, len(full)),
		OK:       ok,
	}
}

// E12RoundsTradeoff contrasts the paper's one-round HyperCube with the
// traditional one-join-per-round strategy its introduction describes. On
// matchings (tiny intermediates) each round costs ~m/p, beating the
// one-round m/p^{2/3}; on dense data the intermediate result explodes and
// one round wins — the tradeoff that motivates single-round algorithms.
func E12RoundsTradeoff(s Scale) Table {
	m, p := sizes(s, 4096, 64, 32768, 64)
	q := query.Triangle()
	rows := [][]string{}
	ok := true

	run := func(label string, db *data.Database, expectOneRoundWins bool) {
		hc := route(hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: 5}).Phys, db)
		mr, _, _ := rounds.PlanPipeline(q, db, rounds.Config{P: p, Seed: 5}).ExecuteWith(db, exec.Config{}) // no ctx, no faults: never errors
		oneRound := float64(hc.Loads.MaxBits)
		multi := float64(mr.SumMaxBits)
		winner := "multi-round"
		if oneRound < multi {
			winner = "one-round"
		}
		if expectOneRoundWins != (winner == "one-round") {
			ok = false
		}
		// The engine's cost model (ConsiderMultiRound) must agree with the
		// measured winner: predicted SumMaxBits vs one-round PredictedBits.
		eng, err := core.New(core.Config{P: p, Seed: 5, ConsiderMultiRound: true})
		if err != nil {
			panic(err) // p is a fixed experiment size ≥ 2
		}
		pick := eng.PlanQuery(q, db).Strategy
		pickAgrees := (pick == core.MultiRound) == (winner == "multi-round")
		if !pickAgrees {
			ok = false
		}
		inter := 0
		for _, r := range mr.Rounds {
			if r.Intermediate > inter {
				inter = r.Intermediate
			}
		}
		rows = append(rows, []string{
			label, fk(oneRound), fk(multi), fi(int64(inter)), winner, pick.String(),
		})
	}

	matchings := data.NewDatabase()
	for j, a := range q.Atoms {
		matchings.Put(workload.Matching(a.Name, 2, m, 1<<21, int64(j+1)))
	}
	run("matchings (sparse)", matchings, false)

	dense := data.NewDatabase()
	// Small domain → quadratic intermediate in round 1.
	domain := int64(math.Sqrt(float64(m)) * 2)
	for j, a := range q.Atoms {
		dense.Put(workload.Uniform(a.Name, 2, m, domain, int64(j+10)))
	}
	run("dense (quadratic intermediate)", dense, true)

	return Table{
		ID: "E12", Title: "One round (HyperCube) vs one-join-per-round plans",
		PaperRef: "§1 (motivation for single-round multiway joins; rounds analyzed in [4])",
		Claim:    "multi-round wins when intermediates are small; HC wins when intermediates explode; the engine's cost model picks the measured winner",
		Columns:  []string{"data", "HC 1-round (bits)", "multi-round Σmax (bits)", "max intermediate", "winner", "engine pick"},
		Rows:     rows,
		Notes:    fmt.Sprintf("C3, m=%d per relation, p=%d", m, p),
		OK:       ok,
	}
}

// A5SamplingStats compares exact heavy-hitter detection with the
// sampling-based detection used in practice (and cited in §1).
func A5SamplingStats(s Scale) Table {
	m, p := sizes(s, 4000, 32, 40000, 64)
	domain := int64(1 << 21)
	db := joinDB(
		workload.Zipf("S1", m, domain, 1, 1.6, uint64(m/8), 1),
		workload.Zipf("S2", m, domain, 1, 1.6, uint64(m/8), 2),
	)
	rows := [][]string{}
	q := query.Join2()
	exact := skew.PlanJoin(q, db, skew.JoinConfig{P: p, Seed: 5})
	exactMax := route(exact.Phys, db).MaxVirtualBits
	rows = append(rows, []string{"exact", fi(int64(exact.NumH1 + exact.NumH2 + exact.NumH12)),
		fk(float64(exactMax)), f2(1.0)})
	ok := true
	for _, size := range []int{m / 8, m / 2} {
		jp := skew.PlanJoin(q, db, skew.JoinConfig{P: p, Seed: 5, SampleSize: size, SampleSeed: 99})
		meas := route(jp.Phys, db).MaxVirtualBits
		ratio := float64(meas) / float64(exactMax)
		// Sampling must stay within a small constant of exact detection.
		if ratio > 4 {
			ok = false
		}
		rows = append(rows, []string{
			fmt.Sprintf("sample %d", size),
			fi(int64(jp.NumH1 + jp.NumH2 + jp.NumH12)),
			fk(float64(meas)), f2(ratio),
		})
	}
	// Correctness under sampling, on a smaller instance (join computed).
	small := joinDB(
		workload.Zipf("S1", 1000, domain, 1, 1.6, 200, 3),
		workload.Zipf("S2", 1000, domain, 1, 1.6, 200, 4),
	)
	want := join.Join(q, join.FromDatabase(small))
	sampled := skew.PlanJoin(q, small, skew.JoinConfig{P: 16, Seed: 5, SampleSize: 200, SampleSeed: 7})
	got, _ := exec.Run(sampled.Phys, small, exec.Config{}) // no ctx, no faults: never errors
	correct := join.EqualTupleSets(got.Output, want)
	if !correct {
		ok = false
	}
	rows = append(rows, []string{"correctness (sampled)", "-", "-", fmt.Sprint(correct)})
	return Table{
		ID: "A5", Title: "Heavy-hitter detection: exact pass vs sampling",
		PaperRef: "§1 (\"detecting the heavy hitters (e.g. using sampling)\")",
		Claim:    "sampled statistics keep the skew join correct and within a small factor of the exact-statistics load",
		Columns:  []string{"statistics", "#hitters", "max load (bits)", "vs exact"},
		Rows:     rows,
		Notes:    fmt.Sprintf("zipf(1.6), m=%d, p=%d", m, p),
		OK:       ok,
	}
}
