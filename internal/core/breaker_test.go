package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mpc"
)

// TestBreakerStateMachine drives the breaker struct directly through every
// transition: trip at the threshold, fast-fail behind an in-flight probe,
// neutral outcomes releasing the probe slot without counting, and a probe
// success closing the circuit.
func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{threshold: 2}
	e := &Engine{breaker: b}

	if probe, err := b.admit(); probe || err != nil {
		t.Fatalf("closed breaker: admit = (%v, %v)", probe, err)
	}
	b.done(false, breakerFault)
	if st := e.HealthStats(); st.State != "closed" || st.ConsecutiveFailures != 1 {
		t.Fatalf("after one fault: %+v", st)
	}
	b.done(false, breakerFault)
	if st := e.HealthStats(); st.State != "open" || st.Trips != 1 {
		t.Fatalf("threshold reached but not open: %+v", st)
	}

	// The next caller is the probe; callers behind it are shed.
	probe, err := b.admit()
	if !probe || err != nil {
		t.Fatalf("open breaker first admit = (%v, %v), want probe", probe, err)
	}
	if st := e.HealthStats(); st.State != "half-open" {
		t.Fatalf("probe in flight but state = %q", st.State)
	}
	if _, err := b.admit(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second admit behind probe: err = %v, want ErrCircuitOpen", err)
	}
	// A neutral outcome (cancellation) releases the slot without judging
	// cluster health: still open, streak untouched, next caller probes.
	b.done(probe, breakerNeutral)
	if st := e.HealthStats(); st.State != "open" || st.ConsecutiveFailures != 2 {
		t.Fatalf("after neutral probe: %+v", st)
	}

	probe, err = b.admit()
	if !probe || err != nil {
		t.Fatalf("re-admit after neutral = (%v, %v), want probe", probe, err)
	}
	b.done(probe, breakerFault)
	if st := e.HealthStats(); st.State != "open" || st.ConsecutiveFailures != 3 {
		t.Fatalf("after failed probe: %+v", st)
	}

	probe, _ = b.admit()
	b.done(probe, breakerOK)
	st := e.HealthStats()
	if st.State != "closed" || st.ConsecutiveFailures != 0 {
		t.Fatalf("probe success did not close the circuit: %+v", st)
	}
	if st.Probes != 3 || st.FastFails != 1 || st.Failures != 3 || st.Successes != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestBreakerTripsProbesAndRecovers drives the breaker through the engine:
// consecutive post-retry fault failures trip it, probes keep testing the
// cluster, and the first clean probe restores service.
func TestBreakerTripsProbesAndRecovers(t *testing.T) {
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, TornRound: 0.5} }
	// Executions consume rounds 1, 2, 3, 4 in order; recovery is disabled so
	// each round's first attempt decides the execution.
	seed := findSeed(t, mk, func(f *mpc.Faults) bool {
		return f.WouldTearRoundAttempt(1, 1) && f.WouldTearRoundAttempt(2, 1) &&
			f.WouldTearRoundAttempt(3, 1) && !f.WouldTearRoundAttempt(4, 1)
	})
	e, err := New(Config{P: 8, Seed: 3, Faults: mk(seed), Retry: Retry{MaxAttempts: -1}, BreakerThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	q, o := faultCase()
	hc := HyperCube
	exec := func() error {
		_, err := e.ExecuteContext(context.Background(), q, o.db, ExecOptions{Strategy: &hc})
		return err
	}

	if err := exec(); !errors.Is(err, mpc.ErrTornRound) {
		t.Fatalf("exec 1: err = %v, want ErrTornRound", err)
	}
	if st := e.HealthStats(); st.State != "closed" {
		t.Fatalf("tripped below threshold: %+v", st)
	}
	if err := exec(); !errors.Is(err, mpc.ErrTornRound) {
		t.Fatalf("exec 2: err = %v, want ErrTornRound", err)
	}
	if st := e.HealthStats(); st.State != "open" || st.Trips != 1 {
		t.Fatalf("threshold reached but not open: %+v", st)
	}

	// Execution 3 is the probe — admitted, fails, circuit stays open.
	if err := exec(); !errors.Is(err, mpc.ErrTornRound) {
		t.Fatalf("probe exec: err = %v, want ErrTornRound", err)
	}
	if st := e.HealthStats(); st.State != "open" || st.Probes != 1 {
		t.Fatalf("after failed probe: %+v", st)
	}

	// Execution 4's round is clean: the probe succeeds and closes the circuit.
	if err := exec(); err != nil {
		t.Fatalf("recovering probe failed: %v", err)
	}
	st := e.HealthStats()
	if st.State != "closed" || st.ConsecutiveFailures != 0 || st.Successes != 1 || st.Probes != 2 {
		t.Fatalf("after clean probe: %+v", st)
	}
}

func TestBreakerDisabledAndValidated(t *testing.T) {
	e, err := New(Config{P: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.HealthStats(); st.State != "disabled" {
		t.Fatalf("breaker-less engine state = %q, want disabled", st.State)
	}
	if _, err := New(Config{P: 4, Seed: 1, BreakerThreshold: -1}); err == nil {
		t.Fatal("negative BreakerThreshold accepted")
	}
}
