// The §4.1 skew join end to end: the planner classifies heavy hitters into
// H1/H2/H12 and allocates virtual processors per hitter; the run compares
// the realized load against both the Eq. (10) prediction and the vanilla
// hash join — HyperCube with shares (1, 1, p) — that skew breaks.
package main

import (
	"fmt"

	"repro"
)

func main() {
	const (
		m      = 5000
		p      = 64
		domain = 1 << 20
	)
	// Zipf-skewed join columns: some z-values are heavy in both relations
	// (H12 -> per-hitter cartesian grids), some in one only (H1/H2 ->
	// partition + broadcast), the rest are light (plain hash join).
	q := repro.Join2Query()
	db := repro.NewDatabase()
	db.Put(repro.ZipfRelation("S1", m, domain, 1, 1.4, 1000, 11))
	db.Put(repro.ZipfRelation("S2", m, domain, 1, 1.4, 1000, 12))

	res, err := repro.Run(q, db, repro.RunConfig{Strategy: repro.StrategySkewJoin, P: p, Seed: 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("skew join of two zipf(1.4) relations, m=%d each, p=%d\n\n", m, p)
	fmt.Printf("answers:           %d tuples\n", len(res.Output))
	fmt.Printf("max virtual load:  %d bits\n", res.MaxLoadBits)
	fmt.Printf("Eq. (10) predicts: %.0f bits  (measured/predicted = %.2fx)\n",
		res.PredictedBits, float64(res.MaxLoadBits)/res.PredictedBits)

	vanilla, err := repro.Run(q, db, repro.RunConfig{Strategy: repro.StrategyHyperCube, P: p, Seed: 3, Shares: []int{1, 1, p}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nvanilla hash join on z: %d tuples, max load %d bits\n", len(vanilla.Output), vanilla.MaxLoadBits)
	fmt.Printf("skew-aware advantage:   %.1fx lower max load\n",
		float64(vanilla.MaxLoadBits)/float64(res.MaxLoadBits))
}
