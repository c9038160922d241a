// Command skewbench runs the full experiment suite of DESIGN.md — one
// experiment per table/example in "Skew in Parallel Query Processing"
// (Beame–Koutris–Suciu, PODS 2014) plus the ablations — and prints
// paper-versus-measured tables. The paper's exponents in p are checked by
// the fitted-slope tests of internal/hypercube, internal/skew and
// internal/rounds (go test -run Slope), not here.
//
// Usage:
//
//	skewbench [-scale quick|full] [-exp E1,E5,A2] [-markdown out.md]
//	skewbench -faultbench fault.json
//
// Performance is measured by the one end-to-end benchmark, go run ./bench
// (see bench/README.md); -faultbench stays here until a bench workload arms
// faults.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	expFlag := flag.String("exp", "", "comma-separated experiment IDs (default: all)")
	mdFlag := flag.String("markdown", "", "also write results as markdown to this file")
	faultFlag := flag.String("faultbench", "", "measure round-replay vs whole-execution fault recovery on the triangle pipeline, write JSON here, and exit")
	flag.Parse()

	if *faultFlag != "" {
		if err := runFaultBench(*faultFlag); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: fault bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	scale := exp.Quick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "skewbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	if *expFlag != "" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	var md strings.Builder
	failures := 0
	for _, r := range exp.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		table := r.Run(scale)
		fmt.Print(exp.Render(table))
		fmt.Printf("    (%.1fs)\n\n", time.Since(start).Seconds())
		if !table.OK {
			failures++
		}
		if *mdFlag != "" {
			md.WriteString(exp.Markdown(table))
			md.WriteString("\n")
		}
	}
	if *mdFlag != "" {
		if err := os.WriteFile(*mdFlag, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "skewbench: writing %s: %v\n", *mdFlag, err)
			os.Exit(1)
		}
		fmt.Printf("markdown written to %s\n", *mdFlag)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "skewbench: %d experiment(s) failed their checks\n", failures)
		os.Exit(1)
	}
}
