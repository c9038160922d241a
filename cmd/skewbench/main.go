// Command skewbench measures round-granular fault recovery on the triangle
// pipeline: round replay against whole-execution retry, written as JSON.
// The paper's claims are tests in the packages they check (go test ./...),
// and performance is measured by the one end-to-end benchmark, go run
// ./bench (see bench/README.md); -faultbench stays here until a bench
// workload arms faults.
//
// Usage:
//
//	skewbench -faultbench fault.json
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	faultFlag := flag.String("faultbench", "", "measure round-replay vs whole-execution fault recovery on the triangle pipeline and write JSON here")
	flag.Parse()
	if *faultFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := runFaultBench(*faultFlag); err != nil {
		fmt.Fprintf(os.Stderr, "skewbench: fault bench: %v\n", err)
		os.Exit(1)
	}
}
