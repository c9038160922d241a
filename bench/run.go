package main

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/join"
	"repro/internal/wcoj"
)

// env is one set-up workload: the generated database, an open session with
// the plan cached and the clusters pooled, and what the closed loop needs
// to issue and check ops.
type env struct {
	w    spec
	ctx  context.Context
	q    *repro.Query
	db   *repro.Database
	s    *repro.Session
	opts []repro.ExecOption
	// want is the oracle's answer cardinality on the current content;
	// every timed Exec is checked against it.
	want int
	// strategy is what the session planned on the first (cold) op; the
	// traced pass rebuilds the same plan through the planner's own entry
	// point.
	strategy repro.Strategy
	// recovery sums Result.Recovery.Attempts over every op issued; no
	// faults are armed, so anything but 0 is a bug.
	recovery int

	// delta_advance only: the standing handle, the prebuilt window steps
	// (steps[j] moves the database from slot j-1 to slot j) and the slot
	// the database currently holds.
	h     *repro.StandingQuery
	win   *deltaWindow
	steps []*repro.Delta
	slot  int
}

// setUp generates the workload's inputs from seed, opens a session, runs
// the first (cold) op, checks its answers against the oracles and warms the
// serving path up. Everything it does is what setup_s times.
func setUp(w spec, seed int64) (*env, error) {
	e := &env{w: w, ctx: context.Background(), q: w.query(), db: w.build(seed)}
	s, err := repro.Open(repro.Config{P: w.p, Seed: engineSeed})
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", w.name, err)
	}
	e.s = s
	if w.strategy != nil {
		e.opts = append(e.opts, repro.WithStrategy(*w.strategy))
	}
	if w.cold {
		e.opts = append(e.opts, repro.WithoutCache())
	}
	first, err := s.Exec(e.ctx, e.q, e.db, e.opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: first exec: %w", w.name, err)
	}
	e.strategy = first.Plan.Strategy
	if err := e.checkAnswers(first.Output, "first exec"); err != nil {
		return nil, err
	}
	e.want = len(first.Output)
	if w.delta {
		if e.win, err = newDeltaWindow(e.db, seed); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if e.h, err = s.Standing(e.ctx, e.q, e.db); err != nil {
			return nil, fmt.Errorf("%s: standing: %w", w.name, err)
		}
		e.steps = make([]*repro.Delta, deltaSlots)
		for j := range e.steps {
			e.steps[j] = e.win.step((j+deltaSlots-1)%deltaSlots, j)
		}
		// Prime the window: slot 0 enters with nothing to delete.
		if err := e.db.Apply(e.win.step(-1, 0)); err != nil {
			return nil, fmt.Errorf("%s: prime window: %w", w.name, err)
		}
		rd, err := e.h.Advance(e.ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: prime advance: %w", w.name, err)
		}
		if len(rd.Added) != deltaBatch || len(rd.Removed) != 0 {
			return nil, fmt.Errorf("%s: prime advance added %d removed %d, want %d and 0", w.name, len(rd.Added), len(rd.Removed), deltaBatch)
		}
		e.want += deltaBatch
	}
	for i := 0; i < w.warmups; i++ {
		if !e.op() {
			return nil, fmt.Errorf("%s: warm-up op %d failed or returned a wrong answer count", w.name, i)
		}
	}
	return e, nil
}

// close releases the session and the standing handle.
func (e *env) close() {
	if e.h != nil {
		e.h.Close()
	}
	_ = e.s.Close() // always nil (see Session.Close)
}

// op issues one closed-loop operation and reports whether it succeeded
// with the oracle's answer cardinality.
func (e *env) op() bool {
	if !e.w.delta {
		res, err := e.s.Exec(e.ctx, e.q, e.db, e.opts...)
		e.recovery += res.Recovery.Attempts
		return err == nil && len(res.Output) == e.want
	}
	next := (e.slot + 1) % deltaSlots
	if err := e.db.Apply(e.steps[next]); err != nil {
		return false
	}
	e.slot = next
	rd, err := e.h.Advance(e.ctx)
	return err == nil && len(rd.Added) == deltaBatch && len(rd.Removed) == deltaBatch
}

// checkAnswers compares got with the internal/join oracle on the full
// current database as a multiset — and, for the triangle, with the
// worst-case-optimal join as a second oracle.
func (e *env) checkAnswers(got []repro.Tuple, what string) error {
	width, err := e.tupleWidth()
	if err != nil {
		return err
	}
	snap := e.db.Snapshot()
	enc := encodeTuples(got, width)
	if !slices.Equal(enc, encodeTuples(join.Join(e.q, join.FromDatabase(snap)), width)) {
		return fmt.Errorf("%s: %s differs from the join oracle", e.w.name, what)
	}
	if e.q.NumAtoms() == 3 {
		if !slices.Equal(enc, encodeTuples(wcoj.Join(e.q, join.FromDatabase(snap)), width)) {
			return fmt.Errorf("%s: %s differs from the wcoj oracle", e.w.name, what)
		}
	}
	return nil
}

// tupleWidth returns the bits one answer value needs, checking that a whole
// answer packs into 64 bits (true of every workload here; a new workload
// over a wider domain must bring its own comparison).
func (e *env) tupleWidth() (uint, error) {
	var domain int64
	for _, a := range e.q.Atoms {
		domain = max(domain, e.db.Get(a.Name).Domain)
	}
	width := uint(bits.Len64(uint64(domain - 1)))
	if int(width)*e.q.NumVars() > 64 {
		return 0, fmt.Errorf("%s: %d answer values of %d bits do not pack into 64", e.w.name, e.q.NumVars(), width)
	}
	return width, nil
}

// encodeTuples packs each tuple into one word and sorts the words, so two
// answer multisets are equal exactly when their encodings are.
func encodeTuples(ts []repro.Tuple, width uint) []uint64 {
	out := make([]uint64, len(ts))
	for i, t := range ts {
		var k uint64
		for _, v := range t {
			k = k<<width | uint64(v)
		}
		out[i] = k
	}
	slices.Sort(out)
	return out
}

// loopStats is what one timed closed loop observed.
type loopStats struct {
	latMS      []float64 // per-op latency
	ends       []float64 // per-op completion, seconds since the loop began
	failed     int
	allocBytes uint64
}

// loop issues ops back to back from this one goroutine until seconds have
// elapsed, timing each.
func (e *env) loop(seconds float64) loopStats {
	st := loopStats{latMS: make([]float64, 0, 1<<14), ends: make([]float64, 0, 1<<14)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	start := time.Now()
	for {
		t0 := time.Since(start)
		ok := e.op()
		t1 := time.Since(start)
		st.latMS = append(st.latMS, float64(t1-t0)/1e6)
		st.ends = append(st.ends, t1.Seconds())
		if !ok {
			st.failed++
		}
		if t1.Seconds() >= seconds {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	st.allocBytes = ms.TotalAlloc - before
	return st
}

// finish brings the database to its canonical final content (delta_advance
// returns the window to slot 0, so the content does not depend on how many
// ops the time box admitted), verifies the standing result against the
// oracle and a fresh Exec, and returns that verification Exec's realized
// max load over its predicted bits and over the plan's lower bound.
func (e *env) finish() (vsPredicted, vsLower float64, err error) {
	if e.w.delta {
		if err := e.db.Apply(e.win.step(e.slot, 0)); err != nil {
			return 0, 0, fmt.Errorf("%s: closing apply: %w", e.w.name, err)
		}
		e.slot = 0
		if _, err := e.h.Advance(e.ctx); err != nil {
			return 0, 0, fmt.Errorf("%s: closing advance: %w", e.w.name, err)
		}
		if err := e.checkAnswers(e.h.Result(), "standing result"); err != nil {
			return 0, 0, err
		}
	}
	res, err := e.s.Exec(e.ctx, e.q, e.db, e.opts...)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: verification exec: %w", e.w.name, err)
	}
	e.recovery += res.Recovery.Attempts
	if e.w.delta {
		if err := e.checkAnswers(res.Output, "verification exec"); err != nil {
			return 0, 0, err
		}
	}
	if len(res.Output) != e.want {
		return 0, 0, fmt.Errorf("%s: verification exec returned %d answers, oracle %d", e.w.name, len(res.Output), e.want)
	}
	if res.PredictedBits <= 0 || res.Plan.LowerBoundBits <= 0 {
		return 0, 0, fmt.Errorf("%s: verification exec predicted %g bits, lower bound %g", e.w.name, res.PredictedBits, res.Plan.LowerBoundBits)
	}
	load := float64(res.MaxLoadBits)
	return load / res.PredictedBits, load / res.Plan.LowerBoundBits, nil
}

// outcome is what one pass or one traced run measured: metric values by
// name, and how many ops it issued and how many of them failed.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
}

// result shapes the outcome into the driver's result line over the given
// metric declarations.
func (o outcome) result(defs []metricDef) result {
	return result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: shape(defs, o.values)}
}

// retainedCycles is how many (op, collect) cycles retained_heap_mb takes its
// maximum over.
const retainedCycles = 5

// runPass is one untraced pass in this process: set-up, a timed closed loop
// of the given length, the final verification, and the end-to-end metrics.
// A pass is meant to own its process — the heap it starts from and the
// heap it retains are then the workload's alone.
func runPass(w spec, seed int64, seconds float64) (outcome, error) {
	t0 := time.Now()
	e, err := setUp(w, seed)
	if err != nil {
		return outcome{}, err
	}
	defer e.close()
	setup := time.Since(t0).Seconds()
	runtime.GC()
	out := summarize(e.loop(seconds))
	out.values["setup_s"] = setup
	if out.values["load_vs_predicted"], out.values["load_vs_lower"], err = e.finish(); err != nil {
		return outcome{}, err
	}
	// What the session keeps alive once the loop's garbage is gone: plan
	// cache, pooled clusters, resident standing state, the database. Which
	// pooled buffers happen to survive a collection differs from op to op
	// (the readings fall into two or three modes a few hundred KiB apart),
	// so the metric is the most seen over a few (op, collect) cycles — the
	// mode a steady server sits in.
	var ms runtime.MemStats
	for i := 0; i < retainedCycles; i++ {
		out.attempted++
		if !e.op() {
			out.failed++
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		out.values["retained_heap_mb"] = max(out.values["retained_heap_mb"], float64(ms.HeapAlloc)/(1<<20))
	}
	return out, nil
}

// summarize turns a timed loop into the latency, throughput and allocation
// metrics.
func summarize(st loopStats) outcome {
	n := len(st.latMS)
	return outcome{attempted: n, failed: st.failed, values: map[string]float64{
		"op_p50_ms":       median(st.latMS),
		"ops_per_s":       segmentThroughput(st.ends),
		"alloc_kb_per_op": float64(st.allocBytes) / 1024 / float64(n),
	}}
}

// peakRSSMiB reads the process's resident-set high-water mark; 0 where
// /proc does not offer it.
func peakRSSMiB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
