// Triangle counting on a skewed graph — the workload that motivated
// one-round multiway algorithms (Suri & Vassilvitskii's "curse of the last
// reducer", cited as [11] in the paper). A power-law graph has celebrity
// nodes; edge-partitioned counting overloads whoever holds them, while the
// HyperCube algorithm with equal shares keeps every server at
// O(m/p^{1/3}) regardless of skew (Corollary 3.2 (ii)).
package main

import (
	"fmt"

	"repro"
)

func main() {
	const (
		edges    = 30000
		vertices = 1500
		p        = 64
	)
	// A power-law graph: source endpoints follow Zipf(1.5), so a few
	// celebrity nodes have very high out-degree. The triangle query C3
	// needs the same edge set under three atom names.
	q := repro.TriangleQuery()
	db := repro.NewDatabase()
	base := repro.SkewedGraphRelation("S1", edges, vertices, 1.5, 7)
	for _, name := range []string{"S1", "S2", "S3"} {
		r := base.Clone()
		r.Name = name
		db.Put(r)
	}

	fmt.Printf("graph: %d edges, zipf(1.5) out-degrees, p = %d servers\n\n", edges, p)

	// Skew-resilient HyperCube: p^{1/3} shares per vertex variable.
	hc, err := repro.Run(q, db, repro.RunConfig{Strategy: repro.StrategyHyperCube, P: p, Seed: 1, Shares: []int{4, 4, 4}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("HyperCube (equal shares %v):\n", hc.Plan.Shares)
	fmt.Printf("  triangles (as ordered C3 answers): %d\n", len(hc.Output))
	fmt.Printf("  max load: %d bits  (replication %.1fx)\n\n",
		hc.MaxLoadBits, float64(hc.TotalBits)/float64(db.TotalBits()))

	// Baseline: hash-join-style shares that partition on one vertex only;
	// the celebrity node's edges pile onto a few servers.
	naive, err := repro.Run(q, db, repro.RunConfig{Strategy: repro.StrategyHyperCube, P: p, Seed: 1, Shares: []int{p, 1, 1}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("vertex-partitioned baseline (shares %v):\n", naive.Plan.Shares)
	fmt.Printf("  max load: %d bits\n\n", naive.MaxLoadBits)

	fmt.Printf("skew penalty of the baseline: %.1fx more bits on the hottest server\n",
		float64(naive.MaxLoadBits)/float64(hc.MaxLoadBits))
}
