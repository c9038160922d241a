package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/mpc"
)

// standingFaultCase opens a standing query under the given fault schedule
// and retry policy, forced to the single-round HyperCube plan so the seed
// costs exactly one communication round (the schedule's round 1).
func standingFaultCase(t *testing.T, f *mpc.Faults, r Retry) (*StandingQuery, *Engine, *dbOracle) {
	t.Helper()
	e, err := New(Config{P: 8, Seed: 3, Faults: f, Retry: r})
	if err != nil {
		t.Fatal(err)
	}
	q, o := faultCase()
	hc := HyperCube
	h, err := e.Standing(context.Background(), q, o.db, ExecOptions{Strategy: &hc})
	if err != nil {
		t.Fatalf("clean seed failed: %v", err)
	}
	return h, e, o
}

func assertStandingResult(t *testing.T, h *StandingQuery, o *dbOracle) {
	t.Helper()
	got := make(map[string]bool)
	for _, tu := range h.Result() {
		got[tu.Key()] = true
	}
	if len(got) != len(o.want) {
		t.Fatalf("standing result = %d answers, oracle %d", len(got), len(o.want))
	}
	for _, tu := range o.want {
		if !got[tu.Key()] {
			t.Fatalf("standing result missing %v", tu)
		}
	}
}

// TestStandingReseedRetriesTornSeedOnce: a reseed whose seed execution loses
// round 2 to a torn round (with the per-execution budget disabled) gets one
// whole-seed retry with a backoff; the retry's round 3 is clean, so Advance
// succeeds and the handle is never left half-advanced.
func TestStandingReseedRetriesTornSeedOnce(t *testing.T) {
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, TornRound: 0.5} }
	// Round 1: clean first seed. Round 2: the reseed tears. Round 3: the
	// reseed retry survives.
	seed := findSeed(t, mk, func(f *mpc.Faults) bool {
		return !f.WouldTearRoundAttempt(1, 1) &&
			f.WouldTearRoundAttempt(2, 1) && !f.WouldTearRoundAttempt(3, 1)
	})
	var ns noSleep
	h, e, o := standingFaultCase(t, mk(seed), Retry{MaxAttempts: 1, Sleep: ns.sleep})
	defer h.Close()

	// Invalidate the plan so the next Advance must reseed.
	e.ClearPlanCache()
	if _, err := h.Advance(context.Background()); err != nil {
		t.Fatalf("reseed with retry failed: %v", err)
	}
	st := h.Stats()
	if st.Reseeds != 1 {
		t.Fatalf("Reseeds = %d, want 1", st.Reseeds)
	}
	if st.Recovery.Attempts != 1 || st.Recovery.RoundsReplayed != 0 {
		t.Fatalf("Recovery = %+v, want exactly the one whole-seed retry", st.Recovery)
	}
	if ns.waits != 1 {
		t.Fatalf("backoff hook saw %d waits, want 1", ns.waits)
	}
	assertStandingResult(t, h, o)
}

// TestStandingReseedSurfacesPersistentFault: when the reseed and its one
// retry both tear, the typed error surfaces, the handle stays stale but
// consistent, and the next Advance recovers on a clean round.
func TestStandingReseedSurfacesPersistentFault(t *testing.T) {
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, TornRound: 0.5} }
	seed := findSeed(t, mk, func(f *mpc.Faults) bool {
		return !f.WouldTearRoundAttempt(1, 1) &&
			f.WouldTearRoundAttempt(2, 1) && f.WouldTearRoundAttempt(3, 1) &&
			!f.WouldTearRoundAttempt(4, 1)
	})
	var ns noSleep
	h, e, o := standingFaultCase(t, mk(seed), Retry{MaxAttempts: 1, Sleep: ns.sleep})
	defer h.Close()

	e.ClearPlanCache()
	if _, err := h.Advance(context.Background()); !errors.Is(err, mpc.ErrTornRound) {
		t.Fatalf("err = %v, want ErrTornRound after the retry also tore", err)
	}
	// The failed reseed left the handle stale; the next Advance reseeds
	// again (round 4, clean) and service resumes.
	if _, err := h.Advance(context.Background()); err != nil {
		t.Fatalf("recovering advance failed: %v", err)
	}
	st := h.Stats()
	if st.Reseeds != 1 {
		t.Fatalf("Reseeds = %d, want 1 (only the successful reseed counts)", st.Reseeds)
	}
	if st.Recovery.Attempts != 1 {
		t.Fatalf("Recovery = %+v, want the one failed whole-seed retry recorded", st.Recovery)
	}
	assertStandingResult(t, h, o)
}
