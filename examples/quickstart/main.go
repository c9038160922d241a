// Quickstart: parse a conjunctive query, generate a small database, and
// evaluate it in one MPC communication round through the public API.
package main

import (
	"context"
	"fmt"

	"repro"
)

func main() {
	// The running example of the paper: q(x,y,z) = S1(x,z), S2(y,z).
	q := repro.MustParseQuery("q(x,y,z) = S1(x,z), S2(y,z)")

	// 10k tuples per relation, skew-free (every value unique per column).
	db := repro.NewDatabase()
	db.Put(repro.MatchingRelation("S1", 2, 10000, 1<<20, 1))
	db.Put(repro.MatchingRelation("S2", 2, 10000, 1<<20, 2))

	// 64 simulated servers; the session plans (here: plain HyperCube with
	// LP-optimal shares) and executes in a single round.
	s, err := repro.Open(repro.Config{P: 64, Seed: 42})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	res, err := s.Exec(context.Background(), q, db)
	if err != nil {
		panic(err)
	}

	fmt.Printf("query:       %s\n", q)
	fmt.Printf("strategy:    %s\n", res.Plan.Strategy)
	fmt.Printf("reason:      %s\n", res.Plan.Reason)
	fmt.Printf("shares:      %v\n", res.Plan.Shares)
	fmt.Printf("answers:     %d tuples\n", len(res.Output))
	fmt.Printf("max load:    %d bits per server\n", res.MaxLoadBits)
	fmt.Printf("lower bound: %.0f bits (Theorem 1.2)\n", res.Plan.LowerBoundBits)
	fmt.Printf("gap:         %.2fx above the information-theoretic bound\n",
		float64(res.MaxLoadBits)/res.Plan.LowerBoundBits)
}
