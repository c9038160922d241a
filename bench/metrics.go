package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json carries
// the same declarations (the harness test holds the two lists equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median an end-to-end metric may
	// worsen by before it counts as a regression; per-layer metrics have
	// none.
	Bound float64
	// Exact marks a metric that is a pure function of (input seed, code):
	// two result sets at the same seed must agree on it to the last digit.
	Exact bool
}

// endToEnd is what a user of the serving surface sees, per workload.
//
// fail_share is deliberately absent: it is 0 on every workload at the seed
// commit, and a metric that is always 0 cannot carry a relative bound — the
// result line's failed/attempted carry it instead, any failure fails the
// run, and session.fail_share reports the ratio in the traced pass.
//
// The two load ratios are exact at a fixed input seed (the comparison mode
// enforces that), but they move by a few percent from seed to seed because
// hashing places different values on different servers; their bound is
// sized to that spread, not to zero.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.08},
	{Name: "retained_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "load_vs_predicted", Unit: "ratio", Better: "lower", Bound: 0.15, Exact: true},
	{Name: "load_vs_lower", Unit: "ratio", Better: "lower", Bound: 0.15, Exact: true},
}

// perLayer is the traced pass's attribution, one name per (module, metric).
// A metric that does not apply to a workload (mpc.shuffle_ms off the
// pipeline, core.advance_ms off delta_advance) reports 0 there.
var perLayer = []metricDef{
	{Name: "session.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "session.self_ms", Unit: "ms", Better: "lower"},
	{Name: "session.op_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "session.tail_pct", Unit: "%", Better: "higher"},
	{Name: "session.fail_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "session.admitted", Unit: "count", Better: "higher"},
	{Name: "session.shed", Unit: "count", Better: "lower", Exact: true},
	{Name: "session.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "core.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cache_hits", Unit: "count", Better: "higher"},
	{Name: "core.cache_misses", Unit: "count", Better: "lower"},
	{Name: "core.replans", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.plan_query_ms", Unit: "ms", Better: "lower"},
	{Name: "core.advance_ms", Unit: "ms", Better: "lower"},
	{Name: "core.advance_ops", Unit: "count", Better: "higher"},
	{Name: "core.advance_reseeds", Unit: "count", Better: "lower", Exact: true},
	{Name: "stats.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "stats.schema_fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "stats.heavy_hitters", Unit: "count", Better: "lower", Exact: true},
	{Name: "bounds.best_lower_ms", Unit: "ms", Better: "lower"},
	{Name: "hypercube.build_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "skew.plan_join_ms", Unit: "ms", Better: "lower"},
	{Name: "skew.plan_general_ms", Unit: "ms", Better: "lower"},
	{Name: "skew.virtual_servers", Unit: "count", Better: "lower", Exact: true},
	{Name: "rounds.plan_pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "rounds.stages", Unit: "count", Better: "lower", Exact: true},
	{Name: "data.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "data.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "data.apply_ops", Unit: "count", Better: "higher"},
	{Name: "data.ensure_partitioned_ms", Unit: "ms", Better: "lower"},
	{Name: "mpc.round_ms", Unit: "ms", Better: "lower"},
	{Name: "mpc.round_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "mpc.round_alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "mpc.shuffle_ms", Unit: "ms", Better: "lower"},
	{Name: "mpc.routed_tuples", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpc.total_bits", Unit: "bits", Better: "lower", Exact: true},
	{Name: "mpc.max_load_bits", Unit: "bits", Better: "lower", Exact: true},
	{Name: "mpc.load_max_over_mean", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mpc.load_gini", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mpc.round_speedup_procs", Unit: "ratio", Better: "higher"},
	{Name: "join.local_ms", Unit: "ms", Better: "lower"},
	{Name: "join.local_alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "join.out_tuples", Unit: "count", Better: "lower", Exact: true},
	{Name: "join.ns_per_out_tuple", Unit: "ns", Better: "lower"},
	{Name: "join.serial_ms", Unit: "ms", Better: "lower"},
	{Name: "join.local_speedup_procs", Unit: "ratio", Better: "higher"},
	{Name: "exec.run_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.gather_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.pool_hits", Unit: "count", Better: "higher"},
	{Name: "exec.pool_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "exec.recovery_attempts", Unit: "count", Better: "lower", Exact: true},
	{Name: "exec.standing_apply_us_per_op", Unit: "us", Better: "lower"},
	{Name: "exec.standing_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// measured is one metric value as printed: the number with all its digits
// and its unit.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single run prints — the contract the driver
// reads.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// shape turns raw values into the declared metric set: every declared name
// is present with its unit, and nothing undeclared leaks out.
func shape(defs []metricDef, values map[string]float64) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		out[d.Name] = measured{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
