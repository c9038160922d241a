// Command bench is the repository's one end-to-end benchmark: it drives the
// public serving surface (repro.Open → Session.Exec / Session.Standing /
// Database.Apply / StandingQuery.Advance) closed-loop from one client
// goroutine over five named workloads, checks every answer, and in a
// separate traced pass times the calls into each layer from outside. See
// README.md for the workloads, the metrics and how they interact.
//
//	go run ./bench -workload hit_small -seed 1 -seconds 10 -trace 0   one untraced run
//	go run ./bench -workload hit_small -seed 1 -seconds 10 -trace 1   one traced run
//	go run ./bench                                                    the full set, bench/out/result.json
//	go run ./bench -repeat                                            two full sets, compared
//	go run ./bench -compare a.json b.json                             compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
	compare  bool
	repeat   bool
	onePass  bool
	args     []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's result line; empty runs the full set")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same relations")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "timed length of one run; an untraced run splits it over its passes")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for result and trace files")
	flag.BoolVar(&o.compare, "compare", false, "compare the two result files given as arguments")
	flag.BoolVar(&o.repeat, "repeat", false, "run the full set twice and compare the two")
	flag.BoolVar(&o.onePass, "pass", false, "internal: run one untraced pass of -seconds in this process (an untraced run starts its passes as children with it)")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.seconds <= 0:
		return fmt.Errorf("-seconds %g: need a positive run length", o.seconds)
	case o.compare:
		if len(o.args) != 2 {
			return fmt.Errorf("-compare needs two result files, got %d arguments", len(o.args))
		}
		return compareFiles(o.args[0], o.args[1])
	case len(o.args) > 0:
		return fmt.Errorf("unexpected arguments %q", o.args)
	case o.workload == "":
		return fullSet(o.seed, o.seconds, o.outDir, o.repeat)
	}
	w, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var res result
	switch {
	case o.onePass:
		p, err := runPass(w, o.seed, o.seconds)
		if err != nil {
			return err
		}
		res = p.result(endToEnd)
	case o.trace == 0:
		var err error
		if res, err = runUntraced(w, o.seed, o.seconds, o.outDir); err != nil {
			return err
		}
		printMetrics(w.name, endToEnd, res.Metrics)
	case o.trace == 1:
		t, err := runTraced(w, o.seed, o.seconds, o.outDir)
		if err != nil {
			return err
		}
		res = t.result(perLayer)
		printMetrics(w.name, perLayer, res.Metrics)
	default:
		return fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed or returned a wrong answer", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// printMetrics lists every metric by name with its unit, in declaration
// order.
func printMetrics(workload string, defs []metricDef, got map[string]measured) {
	for _, d := range defs {
		fmt.Printf("%-16s %-32s %16.6g %s\n", workload, d.Name, got[d.Name].Value, d.Unit)
	}
}
