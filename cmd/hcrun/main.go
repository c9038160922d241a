// Command hcrun generates a synthetic database for a query and evaluates
// it in one MPC round, printing the plan the engine chose (HyperCube, skew
// join, or bin combinations), the realized loads, and the lower bound.
//
// Usage:
//
//	hcrun -q "q(x,y,z) = S1(x,z), S2(y,z)" -p 64 -m 20000 -zipf 1.6
//
// -zipf 0 generates skew-free matchings; larger exponents skew the last
// column of every relation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/workload"
)

func main() {
	qFlag := flag.String("q", "q(x,y,z) = S1(x,z), S2(y,z)", "query text")
	pFlag := flag.Int("p", 64, "number of servers")
	mFlag := flag.Int("m", 20000, "tuples per relation")
	zipfFlag := flag.Float64("zipf", 0, "zipf exponent for the last column (0 = skew-free)")
	seedFlag := flag.Uint64("seed", 1, "hash/workload seed")
	explainFlag := flag.Bool("explain", false, "print the full plan analysis (packings, shares, bins)")
	repeatFlag := flag.Int("repeat", 1, "execute the query this many times (repeats hit the plan cache)")
	flag.Parse()

	q, err := query.Parse(*qFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hcrun: %v\n", err)
		os.Exit(2)
	}
	domain := int64(1 << 21)
	db := data.NewDatabase()
	for j, a := range q.Atoms {
		seed := int64(*seedFlag) + int64(j)*101
		var rel *data.Relation
		switch {
		case a.Arity() == 2 && *zipfFlag > 1:
			rel = workload.Zipf(a.Name, *mFlag, domain, 1, *zipfFlag, uint64(*mFlag/8), seed)
		case a.Arity() == 2:
			rel = workload.Matching(a.Name, 2, *mFlag, domain, seed)
		default:
			rel = workload.Uniform(a.Name, a.Arity(), *mFlag, domain, seed)
		}
		db.Put(rel)
	}

	engine, err := core.New(core.Config{P: *pFlag, Seed: *seedFlag})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hcrun: %v\n", err)
		os.Exit(2)
	}
	if *explainFlag {
		fmt.Print(engine.Explain(q, db))
		return
	}
	plan := engine.PlanQuery(q, db)
	fmt.Printf("query:        %s\n", q)
	fmt.Printf("servers:      p = %d\n", *pFlag)
	fmt.Printf("input:        %d relations × %d tuples (%d bits total)\n",
		q.NumAtoms(), *mFlag, db.TotalBits())
	fmt.Printf("plan:         %s\n", plan.Strategy)
	fmt.Printf("reason:       %s\n", plan.Reason)
	fmt.Printf("lower bound:  %.0f bits per server (Thm 1.2)\n\n", plan.LowerBoundBits)

	var res core.Result
	for i := 0; i < max(*repeatFlag, 1); i++ {
		if res, err = engine.ExecuteContext(context.Background(), q, db, core.ExecOptions{}); err != nil {
			fmt.Fprintf(os.Stderr, "hcrun: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("answers:      %d tuples\n", len(res.Output))
	fmt.Printf("max load:     %d bits per (virtual) server\n", res.MaxLoadBits)
	if res.PredictedBits > 0 {
		fmt.Printf("predicted:    %.0f bits (algorithm's own bound)\n", res.PredictedBits)
	}
	if plan.LowerBoundBits > 0 {
		fmt.Printf("load / lower: %.2f×\n", float64(res.MaxLoadBits)/plan.LowerBoundBits)
	}
	if len(res.Plan.Shares) > 0 {
		fmt.Printf("shares:       %v\n", res.Plan.Shares)
	}
	if *repeatFlag > 1 {
		cs := engine.CacheStats()
		fmt.Printf("plan cache:   %d hits / %d misses / %d evictions over %d executions\n",
			cs.Hits, cs.Misses, cs.Evictions, *repeatFlag)
	}
}
