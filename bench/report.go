package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

const (
	// defaultSeconds is the timed length of one run, BENCHMARK.json's
	// run_seconds: an untraced run splits it over its passes.
	defaultSeconds = 15
	// passes is how many fresh-process passes stand behind every
	// end-to-end value: the value is the median of the passes', so one pass
	// that shared the box with a noisy neighbour does not set it.
	passes = 3
)

// child runs this program again as a child process with the given flags,
// waits for it, and decodes the result line it prints last. A pass needs a
// process of its own: a heap that an earlier workload grew, fragmented and
// tuned the collector on is not the heap a fresh server starts from.
func child(args ...string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("child %v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("child %v: result line: %w", args, err)
	}
	return res, nil
}

// runArgs are the flags of one single-workload run.
func runArgs(w spec, seed int64, seconds float64, outDir string) []string {
	return []string{
		"-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-out", outDir,
	}
}

// passResult runs one untraced pass of w in a child process.
func passResult(w spec, seed int64, seconds float64, outDir string) (result, error) {
	return child(append(runArgs(w, seed, seconds/passes, outDir), "-pass")...)
}

// metricSummary is one end-to-end metric of one workload: the median over
// the passes and the raw pass values behind it.
type metricSummary struct {
	Median float64   `json:"median"`
	Unit   string    `json:"unit"`
	Passes []float64 `json:"passes"`
}

// workloadReport is everything a result file says about one workload.
type workloadReport struct {
	// Ops is the op count each pass's time box admitted.
	Ops      []int                    `json:"ops"`
	Failed   int                      `json:"failed"`
	EndToEnd map[string]metricSummary `json:"end_to_end"`
	PerLayer map[string]measured      `json:"per_layer,omitempty"`
}

// add folds one pass into the report.
func (r *workloadReport) add(p result) {
	r.Ops = append(r.Ops, p.Attempted)
	r.Failed += p.Failed
	if r.EndToEnd == nil {
		r.EndToEnd = make(map[string]metricSummary, len(p.Metrics))
	}
	for name, m := range p.Metrics {
		s := r.EndToEnd[name]
		s.Unit = m.Unit
		s.Passes = append(s.Passes, m.Value)
		s.Median = median(s.Passes)
		r.EndToEnd[name] = s
	}
}

// merged is the report as the driver's result line: every end-to-end
// metric's median over the passes.
func (r *workloadReport) merged() result {
	res := result{Failed: r.Failed, Metrics: make(map[string]measured, len(r.EndToEnd))}
	for _, n := range r.Ops {
		res.Attempted += n
	}
	for name, s := range r.EndToEnd {
		res.Metrics[name] = measured{Value: s.Median, Unit: s.Unit}
	}
	res.Correct = res.Failed == 0
	return res
}

// runUntraced is one untraced run of w: its passes back to back, each in a
// fresh process, merged by median.
func runUntraced(w spec, seed int64, seconds float64, outDir string) (result, error) {
	var rep workloadReport
	for i := 0; i < passes; i++ {
		p, err := passResult(w, seed, seconds, outDir)
		if err != nil {
			return result{}, err
		}
		rep.add(p)
	}
	return rep.merged(), nil
}

// report is one full set of runs: self-describing, so two files can be
// compared without knowing how they were made.
type report struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Passes     int     `json:"passes"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GitCommit  string  `json:"git_commit"`
	// Clients is the closed loop's client count.
	Clients   int                        `json:"clients"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout (the driver's copy is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// oneSet runs the full set once: three passes interleaved over the
// workloads (A B C D E, A B C D E, A B C D E), so a noisy stretch of the
// box lands on one pass of every workload instead of every pass of one,
// then one traced run per workload.
func oneSet(seed int64, seconds float64, outDir string) (*report, error) {
	rep := &report{
		Seed: seed, Seconds: seconds, Passes: passes,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit: gitCommit(), Clients: 1,
		Workloads: make(map[string]*workloadReport, len(specs)),
	}
	for _, w := range specs {
		rep.Workloads[w.name] = &workloadReport{}
	}
	for i := 0; i < passes; i++ {
		for _, w := range specs {
			fmt.Fprintf(os.Stderr, "pass %d/%d %s\n", i+1, passes, w.name)
			p, err := passResult(w, seed, seconds, outDir)
			if err != nil {
				return nil, err
			}
			rep.Workloads[w.name].add(p)
		}
	}
	for _, w := range specs {
		fmt.Fprintf(os.Stderr, "traced %s\n", w.name)
		t, err := child(append(runArgs(w, seed, seconds, outDir), "-trace", "1")...)
		if err != nil {
			return nil, err
		}
		wr := rep.Workloads[w.name]
		wr.PerLayer = t.Metrics
		wr.Failed += t.Failed
	}
	return rep, nil
}

// print lists every metric of every workload by name, with its unit.
func (rep *report) print() {
	for _, w := range specs {
		wr := rep.Workloads[w.name]
		printMetrics(w.name, endToEnd, wr.merged().Metrics)
		printMetrics(w.name, perLayer, wr.PerLayer)
	}
}

// failed sums the failed ops over the workloads.
func (rep *report) failed() int {
	n := 0
	for _, wr := range rep.Workloads {
		n += wr.Failed
	}
	return n
}

func (rep *report) write(path string) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("result directory: %w", err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return nil
}

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read report: %w", err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// fullSet runs every workload and writes outDir/result.json; with repeat it
// runs the set twice (result-a.json, result-b.json) and compares the two.
func fullSet(seed int64, seconds float64, outDir string, repeat bool) error {
	names := []string{"result.json"}
	if repeat {
		names = []string{"result-a.json", "result-b.json"}
	}
	var reps []*report
	for _, name := range names {
		rep, err := oneSet(seed, seconds, outDir)
		if err != nil {
			return err
		}
		rep.print()
		if err := rep.write(filepath.Join(outDir, name)); err != nil {
			return err
		}
		if n := rep.failed(); n > 0 {
			return fmt.Errorf("%d ops failed or returned a wrong answer", n)
		}
		reps = append(reps, rep)
	}
	if repeat {
		return compareReports(reps[0], reps[1])
	}
	return nil
}

func compareFiles(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	return compareReports(a, b)
}

// compareReports prints one row per (workload, end-to-end metric) with both
// medians and fails when any pair differs by more than the metric's bound —
// two sets of runs of the same code must agree. When the two sets used the
// same input seed, every exact metric (load ratios, exact counts) must also
// agree to the last digit.
func compareReports(a, b *report) error {
	sameSeed := a.Seed == b.Seed
	var bad []string
	for _, w := range specs {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			bad = append(bad, w.name+": missing from one result file")
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Median, wb.EndToEnd[d.Name].Median
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := "ok"
			switch {
			case d.Exact && sameSeed && va != vb:
				verdict = "DIFFERS (exact at equal seeds)"
			case diff > d.Bound:
				verdict = fmt.Sprintf("DIFFERS (bound %.0f%%)", 100*d.Bound)
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %-6s %+7.2f%%  %s\n", w.name, d.Name, va, vb, d.Unit, 100*(vb-va)/va, verdict)
			if verdict != "ok" {
				bad = append(bad, w.name+"/"+d.Name)
			}
		}
		if !sameSeed {
			continue
		}
		for _, d := range perLayer {
			if va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value; d.Exact && va != vb {
				fmt.Printf("%-16s %-20s %14.6g %14.6g %-6s DIFFERS (exact at equal seeds)\n", w.name, d.Name, va, vb, d.Unit)
				bad = append(bad, w.name+"/"+d.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("result sets disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}
