package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	"repro"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The tail is the highest percentile that still has tailMinBeyond samples
// beyond it.
func TestTail(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(999 - i) // descending: the picker must sort
	}
	value, pct := tail(vals)
	if value != 989 || pct != 99 {
		t.Errorf("tail of 0..999 = (%v, %v%%), want (989, 99%%)", value, pct)
	}
	beyond := 0
	for _, v := range vals {
		if v > value {
			beyond++
		}
	}
	if beyond != tailMinBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailMinBeyond)
	}
	// Too few samples for any tail: the median, labelled as such.
	if value, pct := tail([]float64{5, 1, 9}); value != 5 || pct != 50 {
		t.Errorf("tail of 3 samples = (%v, %v%%), want the median (5, 50%%)", value, pct)
	}
}

// Throughput is the median over five equal op-count segments, so one
// stalled stretch does not set it.
func TestSegmentThroughput(t *testing.T) {
	// 50 ops: 10 per second for 4 segments, then one segment at 1 op/s.
	var ends []float64
	now := 0.0
	for i := 0; i < 50; i++ {
		if i < 40 {
			now += 0.1
		} else {
			now += 1
		}
		ends = append(ends, now)
	}
	if got := segmentThroughput(ends); got < 9.99 || got > 10.01 {
		t.Errorf("segment throughput = %v, want 10 (the stalled segment must not set it)", got)
	}
	if got := segmentThroughput([]float64{0.5, 1.0}); got != 2 {
		t.Errorf("throughput of 2 ops in 1 s = %v, want 2", got)
	}
}

// An end-to-end value is the median of its pass values.
func TestMedianOfPasses(t *testing.T) {
	var r workloadReport
	for i, v := range []float64{3, 100, 1} {
		r.add(result{Attempted: 10 * (i + 1), Failed: i, Metrics: map[string]measured{"op_p50_ms": {Value: v, Unit: "ms"}}})
	}
	got := r.merged()
	if m := got.Metrics["op_p50_ms"]; m.Value != 3 || m.Unit != "ms" {
		t.Errorf("merged op_p50_ms = %+v, want the median 3 ms", m)
	}
	if got.Attempted != 60 || got.Failed != 3 || got.Correct {
		t.Errorf("merged = %+v, want 60 attempted, 3 failed, not correct", got)
	}
	if p := r.EndToEnd["op_p50_ms"].Passes; len(p) != 3 || p[1] != 100 {
		t.Errorf("raw pass values = %v, want all three kept in order", p)
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The names this program emits are the names BENCHMARK.json declares, one to
// one, with the same units, directions and bounds.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d in the program", len(b.Workloads), len(specs))
	}
	seen := map[string]bool{}
	for i, w := range specs {
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d declared as %+v, program has %q: %q", i, got, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
		seen[w.name] = true
	}
	check := func(kind string, decl []declared, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Fatalf("%d %s metrics declared, %d in the program", len(decl), kind, len(defs))
		}
		for i, d := range defs {
			got := decl[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
				t.Errorf("%s metric %d declared as %+v, program has %+v", kind, i, got, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q (%q) is malformed or repeated", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound declared %v, program %v (must be in (0, 0.25])", d.Name, got.Bound, d.Bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", d.Name)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEnd, true)
	check("per-layer", b.PerLayer, perLayer, false)
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// miniSeconds keeps an in-test run to a few hundred ops.
const miniSeconds = 0.2

// A pass measures exactly the declared end-to-end metrics.
func TestPassEmitsDeclaredEndToEnd(t *testing.T) {
	w, _ := specByName("hit_small")
	p, err := runPass(w, 1, miniSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.attempted == 0 {
		t.Fatalf("%d of %d ops failed", p.failed, p.attempted)
	}
	want := map[string]bool{}
	for _, d := range endToEnd {
		want[d.Name] = true
		if p.values[d.Name] <= 0 {
			t.Errorf("%s = %v, want a positive value", d.Name, p.values[d.Name])
		}
	}
	for _, k := range keys(p.values) {
		if !want[k] {
			t.Errorf("pass measured undeclared metric %q", k)
		}
	}
}

// Same seed, same exact counts; and nothing the traced pass measures is
// undeclared.
func TestTracedCountsRepeatExactly(t *testing.T) {
	w, _ := specByName("hit_small")
	run := func(seed int64) map[string]float64 {
		tr, err := runTraced(w, seed, miniSeconds, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if tr.failed != 0 {
			t.Fatalf("seed %d: %d ops failed", seed, tr.failed)
		}
		return tr.values
	}
	a, b, other := run(1), run(1), run(2)
	declaredLayer := map[string]metricDef{}
	for _, d := range perLayer {
		declaredLayer[d.Name] = d
	}
	for _, k := range keys(a) {
		if _, ok := declaredLayer[k]; !ok {
			t.Errorf("traced pass measured undeclared metric %q", k)
		}
	}
	differs := false
	for _, d := range perLayer {
		if !d.Exact {
			continue
		}
		if a[d.Name] != b[d.Name] {
			t.Errorf("%s: %v then %v at the same seed", d.Name, a[d.Name], b[d.Name])
		}
		if a[d.Name] != other[d.Name] {
			differs = true
		}
	}
	for _, name := range []string{"mpc.routed_tuples", "mpc.total_bits", "mpc.max_load_bits", "join.out_tuples"} {
		if a[name] <= 0 {
			t.Errorf("%s = %v, want a positive count", name, a[name])
		}
	}
	if !differs {
		t.Error("seed 2 reproduced every exact count of seed 1")
	}
	for _, name := range []string{"session.exec_ms", "core.execute_ms", "exec.run_ms", "mpc.round_ms", "join.local_ms", "trace.overhead_share"} {
		if a[name] == 0 {
			t.Errorf("%s was not measured", name)
		}
	}
}

// A different seed changes every workload's inputs; the same seed does not.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range specs {
		one, again, two := w.build(1), w.build(1), w.build(2)
		if repro.DatabaseFingerprint(one) != repro.DatabaseFingerprint(again) {
			t.Errorf("%s: seed 1 generated two different databases", w.name)
		}
		if repro.DatabaseFingerprint(one) == repro.DatabaseFingerprint(two) {
			t.Errorf("%s: seeds 1 and 2 generated the same database", w.name)
		}
	}
}

// The zipf degree sequence is exact: the seed moves values between ranks,
// never the degrees themselves, so the join size is the same at every seed.
func TestZipfDegreesAreSeedInvariant(t *testing.T) {
	profile := func(seed int64) (degrees []int, total int) {
		for _, d := range zipfDegrees(5000, 500, 1.2, seed) {
			degrees = append(degrees, d)
			total += d
		}
		sort.Ints(degrees)
		return degrees, total
	}
	a, totalA := profile(1)
	b, totalB := profile(2)
	if totalA != 5000 || totalB != 5000 {
		t.Fatalf("degrees sum to %d and %d, want 5000", totalA, totalB)
	}
	if len(a) != len(b) {
		t.Fatalf("%d and %d distinct values", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("degree profiles differ at rank %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// One window step is the 1000-op delta the workload is named for.
func TestDeltaWindowStep(t *testing.T) {
	win, err := newDeltaWindow(buildMatchings(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := win.step(0, 1).Len(); n != 4*deltaBatch {
		t.Errorf("step has %d ops, want %d", n, 4*deltaBatch)
	}
	if n := win.step(-1, 0).Len(); n != 2*deltaBatch {
		t.Errorf("priming step has %d ops, want %d", n, 2*deltaBatch)
	}
}

// Two result sets agree when every end-to-end median is within its bound,
// and exact metrics must match to the digit at equal seeds.
func TestCompareReports(t *testing.T) {
	mk := func(scale float64, load float64) *report {
		rep := &report{Seed: 1, Workloads: map[string]*workloadReport{}}
		for _, w := range specs {
			wr := &workloadReport{PerLayer: map[string]measured{"mpc.routed_tuples": {Value: 4000, Unit: "count"}}}
			values := map[string]measured{}
			for _, d := range endToEnd {
				v := 10 * scale
				if d.Exact {
					v = load
				}
				values[d.Name] = measured{Value: v, Unit: d.Unit}
			}
			wr.add(result{Attempted: 1, Metrics: values})
			rep.Workloads[w.name] = wr
		}
		return rep
	}
	base := mk(1, 2.5)
	if err := compareReports(base, mk(1.02, 2.5)); err != nil {
		t.Errorf("2%% apart: %v", err)
	}
	if err := compareReports(base, mk(1.5, 2.5)); err == nil {
		t.Error("50% apart compared equal")
	}
	if err := compareReports(base, mk(1, 2.5000001)); err == nil {
		t.Error("an exact metric that moved at the same seed compared equal")
	}
	otherSeed := mk(1, 2.5000001)
	otherSeed.Seed = 2
	if err := compareReports(base, otherSeed); err != nil {
		t.Errorf("exact metrics are only exact at equal seeds: %v", err)
	}
	counts := mk(1, 2.5)
	counts.Workloads["hit_small"].PerLayer["mpc.routed_tuples"] = measured{Value: 4001, Unit: "count"}
	if err := compareReports(base, counts); err == nil {
		t.Error("a moved exact count compared equal")
	}
}
