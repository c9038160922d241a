package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/workload"
)

// noSleep is a recording Retry.Sleep hook: fault tests stay sleep-free and
// can still assert that backoff waits were scheduled.
type noSleep struct{ waits int }

func (n *noSleep) sleep(_ context.Context, _ time.Duration) error {
	n.waits++
	return nil
}

// faultEngine builds an engine whose every execution runs under the given
// fault schedule and retry policy. Tests force HyperCube per call so each
// execution drives exactly one communication round (round 1) and one
// compute phase (phase 1); replays advance the attempt dimension.
func faultEngine(t *testing.T, f *mpc.Faults, r Retry) *Engine {
	t.Helper()
	e, err := New(Config{P: 8, Seed: 3, Faults: f, Retry: r})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func faultCase() (*query.Query, *dbOracle) {
	q := query.Join2()
	db := db2(
		workload.Matching("S1", 2, 400, 100000, 1),
		workload.Matching("S2", 2, 400, 100000, 2),
	)
	return q, &dbOracle{db: db, want: join.Join(q, join.FromDatabase(db))}
}

type dbOracle struct {
	db   *data.Database
	want []data.Tuple
}

// findSeed scans for a seed whose fault schedule satisfies ok. Schedules are
// pure functions of the seed, so the search is deterministic and cheap.
func findSeed(t *testing.T, mk func(seed uint64) *mpc.Faults, ok func(*mpc.Faults) bool) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 10000; seed++ {
		if ok(mk(seed)) {
			return seed
		}
	}
	t.Fatal("no seed under 10000 produces the wanted fault schedule")
	return 0
}

func TestFaultTornRoundReplaysInPlace(t *testing.T) {
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, TornRound: 0.5} }
	// Round 1 tears on the first attempt and survives the replay.
	seed := findSeed(t, mk, func(f *mpc.Faults) bool {
		return f.WouldTearRoundAttempt(1, 1) && !f.WouldTearRoundAttempt(1, 2)
	})
	var ns noSleep
	e := faultEngine(t, mk(seed), Retry{Sleep: ns.sleep})
	q, o := faultCase()
	hc := HyperCube
	res, err := e.ExecuteContext(context.Background(), q, o.db, ExecOptions{Strategy: &hc})
	if err != nil {
		t.Fatalf("recoverable torn round surfaced: %v", err)
	}
	if res.Recovery.Attempts != 1 || res.Recovery.RoundsReplayed != 1 {
		t.Fatalf("Recovery = %+v, want 1 attempt replaying 1 round", res.Recovery)
	}
	if res.Recovery.BackoffWaits != 1 || ns.waits != 1 {
		t.Fatalf("BackoffWaits = %d (hook saw %d), want 1", res.Recovery.BackoffWaits, ns.waits)
	}
	if !join.EqualTupleSets(res.Output, o.want) {
		t.Fatalf("post-replay output %d tuples, want %d", len(res.Output), len(o.want))
	}
}

func TestFaultTornRoundBudgetExhaustedSurfacesTyped(t *testing.T) {
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, TornRound: 0.5} }
	// Both attempts the 2-attempt budget grants end torn.
	seed := findSeed(t, mk, func(f *mpc.Faults) bool {
		return f.WouldTearRoundAttempt(1, 1) && f.WouldTearRoundAttempt(1, 2)
	})
	var ns noSleep
	e := faultEngine(t, mk(seed), Retry{MaxAttempts: 2, Sleep: ns.sleep})
	q, o := faultCase()
	hc := HyperCube
	_, err := e.ExecuteContext(context.Background(), q, o.db, ExecOptions{Strategy: &hc})
	if !errors.Is(err, mpc.ErrTornRound) {
		t.Fatalf("err = %v, want ErrTornRound", err)
	}
}

func TestFaultTornRoundNoRetryWhenDisabled(t *testing.T) {
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, TornRound: 0.5} }
	// The replay would succeed — but MaxAttempts < 0 disables recovery.
	seed := findSeed(t, mk, func(f *mpc.Faults) bool {
		return f.WouldTearRoundAttempt(1, 1) && !f.WouldTearRoundAttempt(1, 2)
	})
	e := faultEngine(t, mk(seed), Retry{MaxAttempts: -1})
	q, o := faultCase()
	hc := HyperCube
	_, err := e.ExecuteContext(context.Background(), q, o.db, ExecOptions{Strategy: &hc})
	if !errors.Is(err, mpc.ErrTornRound) {
		t.Fatalf("err = %v, want ErrTornRound on first occurrence", err)
	}
}

func TestFaultComputeFailSurfacesTyped(t *testing.T) {
	// Certain compute failure: every attempt fails identically, so the typed
	// error must surface once the budget is spent rather than loop.
	var ns noSleep
	e := faultEngine(t, &mpc.Faults{Seed: 1, ComputeFail: 1}, Retry{Sleep: ns.sleep})
	q, o := faultCase()
	hc := HyperCube
	_, err := e.ExecuteContext(context.Background(), q, o.db, ExecOptions{Strategy: &hc})
	if !errors.Is(err, mpc.ErrComputeFailed) {
		t.Fatalf("err = %v, want ErrComputeFailed", err)
	}
	if ns.waits != DefaultRetryAttempts-1 {
		t.Fatalf("hook saw %d backoff waits, want the full budget of %d", ns.waits, DefaultRetryAttempts-1)
	}
}

func TestFaultComputeRecoversFailedServersOnly(t *testing.T) {
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, ComputeFail: 0.2} }
	// Some server fails the first compute attempt; the recompute attempt is
	// clean for every server, so one retry recovers exactly the failed set.
	// (HyperCube at p=8 runs at most 8 virtual servers; 16 leaves margin.)
	const maxVirtual = 16
	seed := findSeed(t, mk, func(f *mpc.Faults) bool {
		anyFail := false
		for s := 0; s < maxVirtual; s++ {
			if f.WouldFailComputeAttempt(1, 2, s) {
				return false
			}
			if f.WouldFailComputeAttempt(1, 1, s) {
				anyFail = true
			}
		}
		return anyFail
	})
	var ns noSleep
	e := faultEngine(t, mk(seed), Retry{Sleep: ns.sleep})
	q, o := faultCase()
	hc := HyperCube
	res, err := e.ExecuteContext(context.Background(), q, o.db, ExecOptions{Strategy: &hc})
	if err != nil {
		t.Fatalf("recoverable compute failure surfaced: %v", err)
	}
	if res.Recovery.Attempts != 1 || res.Recovery.ServersRecomputed < 1 {
		t.Fatalf("Recovery = %+v, want 1 attempt recomputing >= 1 server", res.Recovery)
	}
	if res.Recovery.RoundsReplayed != 0 {
		t.Fatalf("compute recovery replayed %d rounds, want 0", res.Recovery.RoundsReplayed)
	}
	if !join.EqualTupleSets(res.Output, o.want) {
		t.Fatalf("post-recompute output %d tuples, want %d", len(res.Output), len(o.want))
	}
}

func TestFaultStragglerCancelMidRound(t *testing.T) {
	// Every send part straggles; the hook cancels the context, so the route
	// worker aborts at its next checkpoint. No sleeps: the "stall" is the
	// hook itself.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	f := &mpc.Faults{Seed: 1, Straggler: 1, OnStraggle: func() { once.Do(cancel) }}
	e := faultEngine(t, f, Retry{})
	q, o := faultCase()
	hc := HyperCube
	_, err := e.ExecuteContext(ctx, q, o.db, ExecOptions{Strategy: &hc})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFaultRetryNotCountedOnCleanRun(t *testing.T) {
	e := faultEngine(t, &mpc.Faults{Seed: 1}, Retry{})
	q, o := faultCase()
	hc := HyperCube
	res, err := e.ExecuteContext(context.Background(), q, o.db, ExecOptions{Strategy: &hc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery != (Recovery{}) {
		t.Fatalf("clean run reported recovery: %+v", res.Recovery)
	}
	if !join.EqualTupleSets(res.Output, o.want) {
		t.Fatalf("output %d tuples, want %d", len(res.Output), len(o.want))
	}
}
