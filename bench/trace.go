package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/stats"
)

// span is one timed call into a layer's exported functions, made by this
// program from outside the engine. Spans of one traced op share op_id;
// parent is the declared enclosing span (see spanParent).
type span struct {
	Name   string `json:"name"`
	OpID   int    `json:"op_id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanParent declares the nesting the traced pass reconstructs: the child
// is the same work its parent does inside, called on its own so it can be
// timed. Self times subtract the medians of a parent's children from the
// parent's. ("exec.run" stands for the executor span: a pipeline's phases
// nest under exec.pipeline instead.)
var spanParent = map[string]string{
	"core.execute":             "session.exec",
	"data.snapshot":            "session.exec",
	"exec.run":                 "core.execute",
	"exec.pipeline":            "core.execute",
	"core.plan_query":          "core.execute",
	"data.ensure_partitioned":  "core.execute",
	"stats.fingerprint":        "core.execute",
	"stats.schema_fingerprint": "core.execute",
	"stats.collect":            "core.plan_query",
	"bounds.best_lower":        "core.plan_query",
	"hypercube.build_plan":     "core.plan_query",
	"skew.plan_join":           "core.plan_query",
	"skew.plan_general":        "core.plan_query",
	"rounds.plan_pipeline":     "core.plan_query",
	"mpc.round":                "exec.run",
	"mpc.shuffle":              "exec.run",
	"join.local":               "exec.run",
	"exec.gather":              "exec.run",
	"exec.standing_apply":      "core.advance",
	"exec.standing_flush":      "core.advance",
}

// serialSuffix marks the spans of the GOMAXPROCS=1 pass.
const serialSuffix = ".p1"

// tracer keeps the spans in memory and, per span name, one sample per
// traced op: the summed duration of that op's spans of that name (a
// pipeline runs mpc.round once per stage).
type tracer struct {
	start time.Time
	// pipeline makes exec.pipeline, not exec.run, the executor span the
	// phases nest under.
	pipeline bool
	// allocs makes spanAlloc read the allocation counter around its span.
	// Reading it stops the world and flushes every allocation cache, which
	// slows the span that follows, so the tracer whose times are reported
	// leaves it off and a few extra ops measure allocation on their own.
	allocs  bool
	spans   []span
	cur     map[string]float64
	samples map[string][]float64
}

func newTracer(pipeline bool) *tracer {
	return &tracer{start: time.Now(), pipeline: pipeline, cur: map[string]float64{}, samples: map[string][]float64{}}
}

// span times f as one span of op.
func (t *tracer) span(name string, op int, f func()) { t.batch(name, op, 1, f) }

// batch times reps back-to-back calls of f as one span and samples the
// per-call time — for calls too short for one clock reading.
func (t *tracer) batch(name string, op, reps int, f func()) {
	s := time.Since(t.start)
	for i := 0; i < reps; i++ {
		f()
	}
	e := time.Since(t.start)
	parent := spanParent[strings.TrimSuffix(name, serialSuffix)]
	if parent == "exec.run" && t.pipeline {
		parent = "exec.pipeline"
	}
	t.spans = append(t.spans, span{Name: name, OpID: op, Parent: parent, Start: s.Nanoseconds(), End: e.Nanoseconds()})
	t.cur[name] += float64(e-s) / float64(reps)
}

// spanAlloc is span that, on an allocs tracer, also samples the bytes
// allocated while f ran, under name+".alloc".
func (t *tracer) spanAlloc(name string, op int, f func()) {
	if !t.allocs {
		t.span(name, op, f)
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	t.span(name, op, f)
	runtime.ReadMemStats(&ms)
	t.cur[name+".alloc"] += float64(ms.TotalAlloc - before)
}

// endOp closes the current traced op: its per-name sums become samples.
func (t *tracer) endOp() {
	for name, v := range t.cur {
		t.samples[name] = append(t.samples[name], v)
	}
	clear(t.cur)
}

// ms returns the median per-op time of the named span in milliseconds (0
// when the workload never ran it).
func (t *tracer) ms(name string) float64 { return median(t.samples[name]) / 1e6 }

// twin is the traced pass's outside view of the engine: a second core
// engine and the session's plan rebuilt through the planner's exported
// entry point (same P, same seed, same snapshot, so the same plan), with an
// engine-style scratch and cluster pool to run it on.
type twin struct {
	e    *env
	eng  *core.Engine
	opts core.ExecOptions
	pool exec.ClusterPool
	sc   exec.Scratch
	// planner is the span name of the planner the session's strategy uses;
	// plan runs it on a snapshot and installs phys or pipe.
	planner string
	plan    func(snap *data.Database)
	phys    *exec.PhysicalPlan // one-round strategies
	pipe    *exec.Pipeline     // multi-round
	// standing is delta_advance's twin of the session's resident state.
	standing *exec.Standing
}

func newTwin(e *env) (*twin, error) {
	eng, err := core.New(core.Config{P: e.w.p, Seed: engineSeed})
	if err != nil {
		return nil, fmt.Errorf("%s: twin engine: %w", e.w.name, err)
	}
	tw := &twin{e: e, eng: eng, opts: core.ExecOptions{Serving: true, NoCache: e.w.cold}}
	if e.w.strategy != nil {
		forced := *e.w.strategy
		tw.opts.Strategy = &forced
	}
	p, q := e.w.p, e.q
	switch e.strategy {
	case repro.StrategyHyperCube:
		tw.planner = "hypercube.build_plan"
		tw.plan = func(snap *data.Database) {
			tw.phys = hypercube.BuildPlan(q, snap, hypercube.Config{P: p, Seed: engineSeed}).Phys
		}
	case repro.StrategySkewJoin:
		tw.planner = "skew.plan_join"
		tw.plan = func(snap *data.Database) {
			tw.phys = skew.PlanJoin(q, snap, skew.JoinConfig{P: p, Seed: engineSeed}).Phys
		}
	case repro.StrategyBinCombination:
		tw.planner = "skew.plan_general"
		tw.plan = func(snap *data.Database) {
			tw.phys = skew.PlanGeneral(q, snap, skew.GeneralConfig{P: p, Seed: engineSeed}).Phys
		}
	case repro.StrategyMultiRound:
		tw.planner = "rounds.plan_pipeline"
		tw.plan = func(snap *data.Database) {
			tw.pipe = rounds.PlanPipeline(q, snap, rounds.Config{P: p, Seed: engineSeed, SkewAware: true}).Pipe
		}
	default:
		return nil, fmt.Errorf("%s: no planner for strategy %v", e.w.name, e.strategy)
	}
	snap := e.db.Snapshot()
	tw.plan(snap)
	if tw.phys == nil && tw.pipe == nil {
		return nil, fmt.Errorf("%s: %s produced no executable plan", e.w.name, tw.planner)
	}
	if e.w.delta {
		tw.standing, err = exec.NewStanding(tw.phys, q, snap, exec.Config{Clusters: &tw.pool, Ctx: e.ctx})
		if err != nil {
			return nil, fmt.Errorf("%s: twin standing: %w", e.w.name, err)
		}
	}
	return tw, nil
}

// microReps is how many calls a sub-microsecond probe batches per span.
const microReps = 256

// execChain is one traced Exec: the public call, then the same work one
// layer down at a time — the core engine on a snapshot, the executor on the
// rebuilt plan, and the executor's phases on a pooled cluster. The four
// calls allocate alike, so in a fixed order the collector would fire at the
// same place of every op and always charge the same layer (on delta_advance
// that made the phases 16 % slower than the exec.Run they add up to). The
// starting layer therefore rotates with the op, and every layer's median
// sees every position.
func (tw *twin) execChain(t *tracer, op int) error {
	e := tw.e
	snap := e.db.Snapshot()
	cfg := exec.Config{Scratch: &tw.sc, Clusters: &tw.pool, Ctx: e.ctx}
	layers := []func() error{
		func() error {
			var res repro.Result
			var err error
			t.span("session.exec", op, func() { res, err = e.s.Exec(e.ctx, e.q, e.db, e.opts...) })
			if err == nil && len(res.Output) != e.want {
				err = fmt.Errorf("%d answers, oracle %d", len(res.Output), e.want)
			}
			e.recovery += res.Recovery.Attempts
			return err
		},
		func() error {
			var err error
			t.span("core.execute", op, func() { _, err = tw.eng.ExecuteContext(e.ctx, e.q, snap, tw.opts) })
			return err
		},
		func() error {
			var err error
			if tw.pipe != nil {
				t.span("exec.pipeline", op, func() { _, err = exec.RunPipeline(tw.pipe, snap, cfg) })
				return err
			}
			t.span("exec.run", op, func() { _, err = exec.Run(tw.phys, snap, cfg) })
			// The engine hands Output to its caller and detaches it from the
			// scratch, so every run allocates its output; do the same.
			tw.sc.DetachOutput()
			return err
		},
		func() error {
			_, err := tw.phases(t, op, snap, "")
			return err
		},
	}
	for i := range layers {
		if err := layers[(op+i)%len(layers)](); err != nil {
			return fmt.Errorf("%s: traced exec chain: %w", e.w.name, err)
		}
	}
	t.batch("data.snapshot", op, microReps, func() { e.db.Snapshot() })
	t.batch("stats.fingerprint", op, microReps, func() { stats.Fingerprint(snap) })
	t.batch("stats.schema_fingerprint", op, microReps, func() { stats.SchemaFingerprint(snap) })
	t.span("data.ensure_partitioned", op, func() {
		for _, h := range tw.partitionHints() {
			snap.EnsurePartitioned(h.Rel, h.Attr, e.w.p)
		}
	})
	return nil
}

// partitionHints lists the (relation, attribute) layouts the plan's routers
// can span-route — what a serving Exec keeps current.
func (tw *twin) partitionHints() []exec.PartitionHint {
	if tw.phys != nil {
		return tw.phys.PartitionHints
	}
	var hints []exec.PartitionHint
	for _, st := range tw.pipe.Stages {
		hints = append(hints, st.Plan.PartitionHints...)
	}
	return hints
}

// phaseCounts are the exact counts read at the executor's phase boundaries.
type phaseCounts struct {
	routedTuples, totalBits, maxBits int64
	maxOverMean, gini                float64
	outTuples                        int
}

// phases runs the executor's phases one at a time on a pooled cluster, as
// exec.Run / exec.RunPipeline sequence them — the communication round(s),
// the local computation, the gather — and reads the loads they left.
func (tw *twin) phases(t *tracer, op int, snap *data.Database, suffix string) (phaseCounts, error) {
	virtual := 1
	if tw.pipe == nil {
		virtual = tw.phys.Virtual
	} else {
		for _, st := range tw.pipe.Stages {
			virtual = max(virtual, st.Plan.Virtual)
		}
	}
	c := tw.pool.Get(virtual)
	defer tw.pool.Put(c)
	var counts phaseCounts
	var err error
	if tw.pipe == nil {
		counts.outTuples, err = tw.oneRoundPhases(t, op, snap, c, suffix)
	} else {
		counts.outTuples, err = tw.pipelinePhases(t, op, snap, c, suffix)
	}
	if err != nil {
		return counts, fmt.Errorf("%s: traced phases: %w", tw.e.w.name, err)
	}
	loads := c.Loads()
	counts.routedTuples, counts.totalBits, counts.maxBits = loads.TotalTuples, loads.TotalBits, loads.MaxBits
	if loads.TotalBits > 0 {
		counts.maxOverMean = float64(loads.MaxBits) * float64(loads.P) / float64(loads.TotalBits)
	}
	counts.gini = c.GiniCoefficient()
	return counts, nil
}

// relations resolves relation names on a snapshot.
func relations(snap *data.Database, names []string) []*data.Relation {
	rels := make([]*data.Relation, len(names))
	for i, name := range names {
		rels[i] = snap.MustGet(name)
	}
	return rels
}

// oneRoundPhases is exec.Run phase by phase; it returns the answer count.
func (tw *twin) oneRoundPhases(t *tracer, op int, snap *data.Database, c *mpc.Cluster, suffix string) (int, error) {
	plan := tw.phys
	var err error
	t.spanAlloc("mpc.round"+suffix, op, func() {
		if len(plan.Relations) > 0 {
			err = c.RoundRelations(plan.Router, relations(snap, plan.Relations)...)
		} else {
			err = c.Round(snap, plan.Router)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("round: %w", err)
	}
	outs := make([][]data.Tuple, plan.Virtual)
	var failed []int
	t.spanAlloc("join.local"+suffix, op, func() { failed = c.ComputeGather(outs, plan.Local) })
	if len(failed) > 0 {
		return 0, fmt.Errorf("compute failed on servers %v with no faults armed", failed)
	}
	answers := 0
	t.span("exec.gather"+suffix, op, func() {
		n := 0
		for _, o := range outs {
			n += len(o)
		}
		out := make([]data.Tuple, 0, n)
		for _, o := range outs {
			out = append(out, o...)
		}
		if plan.Dedup {
			out = join.Dedup(out)
		}
		answers = len(out)
	})
	return answers, nil
}

// pipelinePhases is exec.RunPipeline phase by phase; it returns the answer
// count.
func (tw *twin) pipelinePhases(t *tracer, op int, snap *data.Database, c *mpc.Cluster, suffix string) (int, error) {
	for i := range tw.pipe.Stages {
		st := &tw.pipe.Stages[i]
		var err error
		if len(st.Resident) > 0 {
			t.span("mpc.shuffle"+suffix, op, func() { err = c.ShuffleResident(st.Plan.Router, st.Resident...) })
		}
		if err == nil && len(st.Base) > 0 {
			t.spanAlloc("mpc.round"+suffix, op, func() { err = c.RoundRelations(st.Plan.Router, relations(snap, st.Base)...) })
		}
		if err != nil {
			return 0, fmt.Errorf("stage %d: %w", i, err)
		}
		t.spanAlloc("join.local"+suffix, op, func() { c.ComputeResident(st.LocalFragment) })
		if err := c.TakeFault(); err != nil {
			return 0, fmt.Errorf("stage %d compute: %w", i, err)
		}
	}
	last := &tw.pipe.Stages[len(tw.pipe.Stages)-1]
	answers := 0
	t.span("exec.gather"+suffix, op, func() {
		out := data.NewRelation(last.OutName, last.OutArity, last.OutDomain)
		for _, sv := range c.Servers {
			if f := sv.Received[last.OutName]; f != nil && f.Size() > 0 {
				out.AppendColumns(f.Columns(), f.Size())
			}
		}
		answers = out.Size()
	})
	return answers, nil
}

// planChain times what a plan-cache miss pays: the engine's planning entry
// point, then statistics, the lower bound and the strategy's planner on
// their own.
func (tw *twin) planChain(t *tracer, op int, snap *data.Database) {
	e := tw.e
	t.span("core.plan_query", op, func() { tw.eng.PlanQuery(e.q, snap) })
	t.span("stats.collect", op, func() { stats.CollectDB(snap, e.w.p) })
	t.span("bounds.best_lower", op, func() { bounds.BestLower(e.q, snap, e.w.p, 0) })
	t.span(tw.planner, op, func() { tw.plan(snap) })
}

// deltaChain is one traced delta_advance op: the public Apply and Advance,
// then the same delta folded op by op into the twin's resident state.
func (tw *twin) deltaChain(t *tracer, op int) error {
	e := tw.e
	next := (e.slot + 1) % deltaSlots
	d := e.steps[next]
	var err error
	t.span("data.apply", op, func() { err = e.db.Apply(d) })
	if err != nil {
		return fmt.Errorf("%s: traced apply: %w", e.w.name, err)
	}
	e.slot = next
	var rd repro.ResultDelta
	t.span("core.advance", op, func() { rd, err = e.h.Advance(e.ctx) })
	if err == nil && (len(rd.Added) != deltaBatch || len(rd.Removed) != deltaBatch) {
		err = fmt.Errorf("added %d removed %d, want %d each", len(rd.Added), len(rd.Removed), deltaBatch)
	}
	if err != nil {
		return fmt.Errorf("%s: traced advance: %w", e.w.name, err)
	}
	t.span("exec.standing_apply", op, func() {
		d.EachOp(func(rel string, vals []int64, insert bool) {
			if err == nil {
				err = tw.standing.ApplyOp(rel, vals, insert)
			}
		})
	})
	if err != nil {
		return fmt.Errorf("%s: twin standing apply: %w", e.w.name, err)
	}
	t.span("exec.standing_flush", op, func() { tw.standing.Flush() })
	return nil
}

// heavyHitters counts the heavy hitters at threshold m/p over the query's
// relations, as the engine's strategy selection sees them.
func heavyHitters(q *repro.Query, snap *data.Database, p int) int {
	st := stats.CollectDB(snap, p)
	n := 0
	for _, a := range q.Atoms {
		rs := st.Relations[a.Name]
		for _, f := range rs.ByAttrs {
			n += len(f.HeavyHitters(rs.Threshold))
		}
	}
	return n
}

// Shares of a traced run's time box: an untraced loop (tails, counters and
// the baseline the tracing overhead is measured against), the traced ops,
// and the GOMAXPROCS=1 repeat of the executor's phases.
const (
	untracedShare = 0.25
	tracedShare   = 0.55
	serialShare   = 0.20
	// minTracedOps keeps a median meaningful on the slowest workload.
	minTracedOps = 3
	// coldPlanOps is how many traced ops of a cache-hit workload also time
	// the planning chain (every op of a cold workload does).
	coldPlanOps = 3
)

// runTraced is one traced run: set-up, an untraced loop, the traced ops,
// the serial repeat, the final verification, and the per-layer metrics. The
// spans go to outDir/trace-<workload>.json.
func runTraced(w spec, seed int64, seconds float64, outDir string) (outcome, error) {
	e, err := setUp(w, seed)
	if err != nil {
		return outcome{}, err
	}
	defer e.close()

	cache0, pool0, adm0 := e.s.CacheStats(), e.s.PoolStats(), e.s.AdmissionStats()
	var stand0 repro.StandingStats
	if e.h != nil {
		stand0 = e.h.Stats()
	}
	runtime.GC()
	st := e.loop(seconds * untracedShare)
	base := summarize(st)
	tailMS, tailPct := tail(st.latMS)
	cache1, pool1, adm1 := e.s.CacheStats(), e.s.PoolStats(), e.s.AdmissionStats()
	v := map[string]float64{
		"session.op_tail_ms": tailMS,
		"session.tail_pct":   tailPct,
		"session.fail_share": float64(base.failed) / float64(base.attempted),
		"session.admitted":   float64(adm1.Admitted - adm0.Admitted),
		"session.shed":       float64(adm1.Shed - adm0.Shed),
		"core.cache_hits":    float64(cache1.Hits - cache0.Hits),
		"core.cache_misses":  float64(cache1.Misses - cache0.Misses),
		"core.replans":       float64(cache1.Replans - cache0.Replans),
		"exec.pool_hits":     float64(pool1.Reuses - pool0.Reuses),
		"exec.pool_misses":   float64((pool1.Gets - pool0.Gets) - (pool1.Reuses - pool0.Reuses)),
	}
	if e.h != nil {
		stand1 := e.h.Stats()
		v["core.advance_ops"] = float64(stand1.AppliedOps - stand0.AppliedOps)
		v["core.advance_reseeds"] = float64(stand1.Reseeds - stand0.Reseeds)
		v["data.apply_ops"] = v["core.advance_ops"]
	}

	tw, err := newTwin(e)
	if err != nil {
		return outcome{}, err
	}
	defer tw.eng.Close()
	t := newTracer(tw.pipe != nil)
	ops := 0
	for began := time.Now(); ops < minTracedOps || time.Since(began).Seconds() < seconds*tracedShare; ops++ {
		if w.delta {
			if err := tw.deltaChain(t, ops); err != nil {
				return outcome{}, err
			}
		}
		if err := tw.execChain(t, ops); err != nil {
			return outcome{}, err
		}
		if w.cold || ops < coldPlanOps {
			tw.planChain(t, ops, e.db.Snapshot())
		}
		t.endOp()
	}
	// The executor's phases again on one processor: what the engine's
	// internal workers buy on this box.
	snap := e.db.Snapshot()
	prev := runtime.GOMAXPROCS(1)
	serialOps := 0
	for began := time.Now(); serialOps < minTracedOps || time.Since(began).Seconds() < seconds*serialShare; serialOps++ {
		if _, err = tw.phases(t, ops+serialOps, snap, serialSuffix); err != nil {
			break
		}
		t.endOp()
	}
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return outcome{}, err
	}

	if _, _, err := e.finish(); err != nil {
		return outcome{}, err
	}
	// Exact counts come from the canonical final content, so they do not
	// depend on how many ops the time box admitted; the same few ops measure
	// the phases' allocation, their times discarded.
	final := e.db.Snapshot()
	at := newTracer(tw.pipe != nil)
	at.allocs = true
	var counts phaseCounts
	for i := 0; i < minTracedOps; i++ {
		if counts, err = tw.phases(at, i, final, ""); err != nil {
			return outcome{}, err
		}
		at.endOp()
	}

	opMS := t.ms("session.exec")
	if w.delta {
		opMS = t.ms("data.apply") + t.ms("core.advance")
	}
	execMS := t.ms("exec.run") + t.ms("exec.pipeline")
	roundMS, localMS := t.ms("mpc.round"), t.ms("join.local")
	maps.Copy(v, map[string]float64{
		"session.exec_ms":               t.ms("session.exec"),
		"session.self_ms":               t.ms("session.exec") - t.ms("core.execute"),
		"session.peak_rss_mb":           peakRSSMiB(),
		"core.execute_ms":               t.ms("core.execute"),
		"core.self_ms":                  t.ms("core.execute") - execMS,
		"core.plan_query_ms":            t.ms("core.plan_query"),
		"core.advance_ms":               t.ms("core.advance"),
		"stats.collect_ms":              t.ms("stats.collect"),
		"stats.fingerprint_us":          t.ms("stats.fingerprint") * 1e3,
		"stats.schema_fingerprint_us":   t.ms("stats.schema_fingerprint") * 1e3,
		"stats.heavy_hitters":           float64(heavyHitters(e.q, final, w.p)),
		"bounds.best_lower_ms":          t.ms("bounds.best_lower"),
		"hypercube.build_plan_ms":       t.ms("hypercube.build_plan"),
		"skew.plan_join_ms":             t.ms("skew.plan_join"),
		"skew.plan_general_ms":          t.ms("skew.plan_general"),
		"rounds.plan_pipeline_ms":       t.ms("rounds.plan_pipeline"),
		"data.snapshot_us":              t.ms("data.snapshot") * 1e3,
		"data.apply_ms":                 t.ms("data.apply"),
		"data.ensure_partitioned_ms":    t.ms("data.ensure_partitioned"),
		"mpc.round_ms":                  roundMS,
		"mpc.round_alloc_kb":            median(at.samples["mpc.round.alloc"]) / 1024,
		"mpc.shuffle_ms":                t.ms("mpc.shuffle"),
		"mpc.routed_tuples":             float64(counts.routedTuples),
		"mpc.total_bits":                float64(counts.totalBits),
		"mpc.max_load_bits":             float64(counts.maxBits),
		"mpc.load_max_over_mean":        counts.maxOverMean,
		"mpc.load_gini":                 counts.gini,
		"join.local_ms":                 localMS,
		"join.local_alloc_kb":           median(at.samples["join.local.alloc"]) / 1024,
		"join.out_tuples":               float64(counts.outTuples),
		"join.serial_ms":                t.ms("join.local" + serialSuffix),
		"exec.run_ms":                   t.ms("exec.run"),
		"exec.pipeline_ms":              t.ms("exec.pipeline"),
		"exec.self_ms":                  execMS - roundMS - t.ms("mpc.shuffle") - localMS - t.ms("exec.gather"),
		"exec.gather_ms":                t.ms("exec.gather"),
		"exec.recovery_attempts":        float64(e.recovery),
		"exec.standing_apply_us_per_op": t.ms("exec.standing_apply") * 1e3 / (4 * deltaBatch),
		"exec.standing_flush_ms":        t.ms("exec.standing_flush"),
		"trace.overhead_share":          (opMS - base.values["op_p50_ms"]) / base.values["op_p50_ms"],
	})
	if tw.pipe != nil {
		v["rounds.stages"] = float64(len(tw.pipe.Stages))
		for _, st := range tw.pipe.Stages {
			v["skew.virtual_servers"] = max(v["skew.virtual_servers"], float64(st.Plan.Virtual))
		}
	} else {
		v["rounds.stages"] = 1
		v["skew.virtual_servers"] = float64(tw.phys.Virtual)
	}
	if counts.routedTuples > 0 {
		v["mpc.round_ns_per_tuple"] = (roundMS + t.ms("mpc.shuffle")) * 1e6 / float64(counts.routedTuples)
	}
	if counts.outTuples > 0 {
		v["join.ns_per_out_tuple"] = localMS * 1e6 / float64(counts.outTuples)
	}
	if roundMS > 0 {
		v["mpc.round_speedup_procs"] = t.ms("mpc.round"+serialSuffix) / roundMS
	}
	if localMS > 0 {
		v["join.local_speedup_procs"] = v["join.serial_ms"] / localMS
	}

	if err := writeTrace(outDir, w.name, seed, t.spans); err != nil {
		return outcome{}, err
	}
	return outcome{values: v, attempted: base.attempted + ops, failed: base.failed}, nil
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the spans kept in memory to outDir/trace-<workload>.json.
func writeTrace(outDir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	blob, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
