package exp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bounds"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/workload"
)

// Series is one curve of a figure: y(x) with a name. The paper reports
// formulas rather than plots; these series render the formulas' shapes
// (load vs p, load vs skew, replication vs reducer size) so they can be
// plotted or eyeballed as CSV.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// CSV renders series in long form: series,x,y.
func CSV(series []Series) string {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range series {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", s.Name, s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// FigureLoadVsP sweeps the server count for the triangle query on
// skew-free data: measured HC load, the L_lower bound, and the multi-round
// alternative. The HC curve should track m/p^{2/3} (the bound), while
// multi-round tracks m/p on matchings.
func FigureLoadVsP(s Scale) []Series {
	m, _ := sizes(s, 4000, 0, 30000, 0)
	q := query.Triangle()
	db := data.NewDatabase()
	for j, a := range q.Atoms {
		db.Put(workload.Matching(a.Name, 2, m, 1<<21, int64(j+1)))
	}
	bitsM := make([]float64, 3)
	for j, a := range q.Atoms {
		bitsM[j] = float64(db.MustGet(a.Name).Bits())
	}
	ps := []int{8, 16, 32, 64, 128, 256}
	hc := Series{Name: "hypercube"}
	lower := Series{Name: "lower-bound"}
	multi := Series{Name: "multi-round"}
	for _, p := range ps {
		res := route(hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: 3}).Phys, db)
		hc.X = append(hc.X, float64(p))
		hc.Y = append(hc.Y, float64(res.Loads.MaxBits))
		lb, _ := bounds.SimpleLower(q, bitsM, p)
		lower.X = append(lower.X, float64(p))
		lower.Y = append(lower.Y, lb)
		mr, _, _ := rounds.PlanPipeline(q, db, rounds.Config{P: p, Seed: 3}).ExecuteWith(db, exec.Config{}) // no ctx, no faults: never errors
		multi.X = append(multi.X, float64(p))
		multi.Y = append(multi.Y, float64(mr.SumMaxBits))
	}
	return []Series{hc, lower, multi}
}

// FigureLoadVsSkew sweeps the Zipf exponent of the join column at fixed p:
// the skew join's load stays near the Eq. (10) optimum while the vanilla
// hash join's load grows toward Ω(m).
func FigureLoadVsSkew(s Scale) []Series {
	m, p := sizes(s, 4000, 32, 30000, 64)
	domain := int64(1 << 21)
	exps := []float64{1.1, 1.3, 1.5, 1.8, 2.2}
	skewed := Series{Name: "skew-join"}
	vanilla := Series{Name: "vanilla-hash"}
	pred := Series{Name: "eq10-bound"}
	for _, zs := range exps {
		db := joinDB(
			workload.Zipf("S1", m, domain, 1, zs, uint64(m/8), 1),
			workload.Zipf("S2", m, domain, 1, zs, uint64(m/8), 2),
		)
		jp := skew.PlanJoin(query.Join2(), db, skew.JoinConfig{P: p, Seed: 5})
		// The vanilla hash join is HyperCube with shares (1, 1, p).
		v := route(hypercube.BuildPlan(query.Join2(), db, hypercube.Config{P: p, Seed: 5, Shares: []int{1, 1, p}}).Phys, db).MaxVirtualBits
		skewed.X = append(skewed.X, zs)
		skewed.Y = append(skewed.Y, float64(route(jp.Phys, db).MaxVirtualBits))
		vanilla.X = append(vanilla.X, zs)
		vanilla.Y = append(vanilla.Y, float64(v))
		pred.X = append(pred.X, zs)
		pred.Y = append(pred.Y, jp.PredictedBits)
	}
	return []Series{skewed, vanilla, pred}
}

// FigureResilience sweeps p for the fully-skewed join under the equal-share
// configuration: the measured load should decay as p^{-1/3} (Cor. 3.2 (ii))
// while the hash join stays flat at Ω(m).
func FigureResilience(s Scale) []Series {
	m, _ := sizes(s, 4000, 0, 30000, 0)
	domain := int64(1 << 21)
	db := joinDB(
		workload.SingleValue("S1", 2, m, domain, 1, 7, 1),
		workload.SingleValue("S2", 2, m, domain, 1, 7, 2),
	)
	q := query.Join2()
	eq := Series{Name: "equal-shares"}
	hash := Series{Name: "hash-join"}
	ref := Series{Name: "m-over-cbrt-p"}
	bitsPer := float64(db.MustGet("S1").BitsPerTuple())
	for _, p := range []int{8, 27, 64, 216, 512} {
		r1 := route(hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: 3, EqualShares: true}).Phys, db)
		r2 := route(hypercube.BuildPlan(q, db, hypercube.Config{P: p, Seed: 3, Shares: []int{1, 1, p}}).Phys, db)
		eq.X = append(eq.X, float64(p))
		eq.Y = append(eq.Y, float64(r1.Loads.MaxBits))
		hash.X = append(hash.X, float64(p))
		hash.Y = append(hash.Y, float64(r2.Loads.MaxBits))
		ref.X = append(ref.X, float64(p))
		ref.Y = append(ref.Y, 2*float64(m)*bitsPer/math.Cbrt(float64(p)))
	}
	return []Series{eq, hash, ref}
}

// Figures lists the series generators by name for skewbench -fig.
func Figures() map[string]func(Scale) []Series {
	return map[string]func(Scale) []Series{
		"load-vs-p":    FigureLoadVsP,
		"load-vs-skew": FigureLoadVsSkew,
		"resilience":   FigureResilience,
	}
}
