package exec

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/mpc"
)

// recordSleep is a Retry.Sleep hook keeping fault tests sleep-free while
// still observing the scheduled backoffs.
type recordSleep struct {
	waits []time.Duration
}

func (r *recordSleep) sleep(_ context.Context, d time.Duration) error {
	r.waits = append(r.waits, d)
	return nil
}

func findRetrySeed(t *testing.T, mk func(seed uint64) *mpc.Faults, ok func(*mpc.Faults) bool) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 10000; seed++ {
		if ok(mk(seed)) {
			return seed
		}
	}
	t.Fatal("no seed under 10000 produces the wanted fault schedule")
	return 0
}

// threeRoundPipeline builds a pipeline driving exactly three communication
// rounds: stage 1 routes the base relation (round 1), stages 2 and 3 shuffle
// the resident intermediate (rounds 2 and 3).
func threeRoundPipeline() *Pipeline {
	s1 := incStage("S", "t1", 4)
	s1.Base = []string{"S"}
	s2 := incStage("t1", "t2", 3)
	s2.Resident = []string{"t1"}
	s3 := incStage("t2", "t3", 3)
	s3.Resident = []string{"t2"}
	return &Pipeline{Strategy: "test", Physical: 2, Stages: []Stage{s1, s2, s3}}
}

// relRows canonicalizes a relation into sorted row tuples for multiset
// comparison.
func relRows(r *data.Relation) [][]int64 {
	rows := make([][]int64, r.Size())
	for i := 0; i < r.Size(); i++ {
		row := make([]int64, r.Arity)
		for c := 0; c < r.Arity; c++ {
			row[c] = r.At(i, c)
		}
		rows[i] = row
	}
	sort.Slice(rows, func(i, j int) bool {
		for c := range rows[i] {
			if rows[i][c] != rows[j][c] {
				return rows[i][c] < rows[j][c]
			}
		}
		return false
	})
	return rows
}

func assertSameOutput(t *testing.T, want, got *data.Relation) {
	t.Helper()
	if want.Arity != got.Arity || want.Size() != got.Size() {
		t.Fatalf("output shape differs: %dx%d vs %dx%d", got.Size(), got.Arity, want.Size(), want.Arity)
	}
	w, g := relRows(want), relRows(got)
	for i := range w {
		for c := range w[i] {
			if w[i][c] != g[i][c] {
				t.Fatalf("output differs as a multiset at row %d: %v vs %v", i, g[i], w[i])
			}
		}
	}
}

// TestPipelineReplaysOnlyTornRound is the acceptance test for round-granular
// recovery: for each round k of a 3-round pipeline, a seed that tears
// exactly round k's first attempt must replay only round k — the other
// stages report zero replays, the recovery counters say one replayed round,
// and the output and per-round loads match the fault-free oracle exactly.
func TestPipelineReplaysOnlyTornRound(t *testing.T) {
	db := testDB()
	oracle, err := RunPipeline(threeRoundPipeline(), db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, TornRound: 0.5} }
	for k := uint64(1); k <= 3; k++ {
		k := k
		seed := findRetrySeed(t, mk, func(f *mpc.Faults) bool {
			for r := uint64(1); r <= 3; r++ {
				if r == k {
					if !f.WouldTearRoundAttempt(r, 1) || f.WouldTearRoundAttempt(r, 2) {
						return false
					}
				} else if f.WouldTearRoundAttempt(r, 1) {
					return false
				}
			}
			return true
		})
		var rec Recovery
		var rs recordSleep
		res, err := RunPipeline(threeRoundPipeline(), db, Config{
			Faults:   mk(seed),
			Retry:    Retry{Sleep: rs.sleep},
			Recovery: &rec,
		})
		if err != nil {
			t.Fatalf("round %d: recoverable tear surfaced: %v", k, err)
		}
		if rec.Attempts != 1 || rec.RoundsReplayed != 1 || rec.ServersRecomputed != 0 {
			t.Fatalf("round %d: Recovery = %+v, want exactly 1 attempt replaying 1 round", k, rec)
		}
		if len(rs.waits) != 1 {
			t.Fatalf("round %d: %d backoff waits, want 1", k, len(rs.waits))
		}
		for i, rl := range res.Rounds {
			wantReplays := 0
			if uint64(i+1) == k {
				wantReplays = 1
			}
			if rl.Replays != wantReplays {
				t.Fatalf("round %d: stage %d Replays = %d, want %d", k, i, rl.Replays, wantReplays)
			}
			want := oracle.Rounds[i]
			if rl.MaxBits != want.MaxBits || rl.TotalBits != want.TotalBits ||
				rl.Intermediate != want.Intermediate || rl.ResidentTuples != want.ResidentTuples {
				t.Fatalf("round %d: stage %d load %+v differs from fault-free %+v", k, i, rl, want)
			}
		}
		assertSameOutput(t, oracle.Output, res.Output)
	}
}

// TestPipelineRetryBudgetSharedAcrossRounds: with a budget of one retry, a
// replay spent on round 1 leaves nothing for round 2's tear — the typed
// error surfaces and the recovery counters show the partial recovery.
func TestPipelineRetryBudgetSharedAcrossRounds(t *testing.T) {
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, TornRound: 0.5} }
	seed := findRetrySeed(t, mk, func(f *mpc.Faults) bool {
		return f.WouldTearRoundAttempt(1, 1) && !f.WouldTearRoundAttempt(1, 2) &&
			f.WouldTearRoundAttempt(2, 1)
	})
	var rec Recovery
	var rs recordSleep
	_, err := RunPipeline(threeRoundPipeline(), testDB(), Config{
		Faults:   mk(seed),
		Retry:    Retry{MaxAttempts: 2, Sleep: rs.sleep},
		Recovery: &rec,
	})
	if !errors.Is(err, mpc.ErrTornRound) {
		t.Fatalf("err = %v, want ErrTornRound once the shared budget is spent", err)
	}
	if rec.Attempts != 1 || rec.RoundsReplayed != 1 {
		t.Fatalf("Recovery = %+v, want the single budgeted replay recorded", rec)
	}
}

// TestPipelineRecomputesOnlyFailedServers: a compute-phase failure re-runs
// just the failed servers; the recovered run matches the fault-free oracle.
func TestPipelineRecomputesOnlyFailedServers(t *testing.T) {
	db := testDB()
	oracle, err := RunPipeline(threeRoundPipeline(), db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, ComputeFail: 0.2} }
	// Stage virtual sizes are 4, 3, 3: some server fails its phase's first
	// attempt, every second attempt is clean, so recovery needs exactly one
	// retry per failing phase.
	var wantFailed int
	seed := findRetrySeed(t, mk, func(f *mpc.Faults) bool {
		wantFailed = 0
		for phase := uint64(1); phase <= 3; phase++ {
			for s := 0; s < 4; s++ {
				if f.WouldFailComputeAttempt(phase, 2, s) {
					return false
				}
				if f.WouldFailComputeAttempt(phase, 1, s) {
					wantFailed++
				}
			}
		}
		return wantFailed >= 1
	})
	var rec Recovery
	var rs recordSleep
	res, err := RunPipeline(threeRoundPipeline(), db, Config{
		Faults:   mk(seed),
		Retry:    Retry{Sleep: rs.sleep},
		Recovery: &rec,
	})
	if err != nil {
		t.Fatalf("recoverable compute failure surfaced: %v", err)
	}
	// wantFailed counts over server IDs 0..3 for every phase; stages 2 and 3
	// only run 3 virtual servers, so the realized count can only be lower.
	if rec.ServersRecomputed < 1 || rec.ServersRecomputed > wantFailed {
		t.Fatalf("ServersRecomputed = %d, want in [1, %d]", rec.ServersRecomputed, wantFailed)
	}
	if rec.RoundsReplayed != 0 {
		t.Fatalf("compute recovery replayed %d rounds, want 0", rec.RoundsReplayed)
	}
	assertSameOutput(t, oracle.Output, res.Output)
}

// TestRunRecomputesOnlyFailedServer: one of a one-round plan's three servers
// fails its compute phase's first attempt. Only that server re-runs — the
// survivors' rows stand — and Output is, element for element, the fault-free
// run's. (One worker, so both runs deliver the fragments in the same order.)
func TestRunRecomputesOnlyFailedServer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := testDB()
	plan := &PhysicalPlan{Strategy: "test", Virtual: 3, Physical: 3, Router: modRouter(3), Query: copyS}
	oracle, err := Run(plan, db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, ComputeFail: 0.3} }
	seed := findRetrySeed(t, mk, func(f *mpc.Faults) bool {
		failed := 0
		for s := 0; s < 3; s++ {
			if f.WouldFailComputeAttempt(1, 2, s) {
				return false
			}
			if f.WouldFailComputeAttempt(1, 1, s) {
				failed++
			}
		}
		return failed == 1
	})
	var rec Recovery
	var rs recordSleep
	res, err := Run(plan, db, Config{Faults: mk(seed), Retry: Retry{Sleep: rs.sleep}, Recovery: &rec})
	if err != nil {
		t.Fatalf("recoverable compute failure surfaced: %v", err)
	}
	if rec.Attempts != 1 || rec.ServersRecomputed != 1 || rec.RoundsReplayed != 0 {
		t.Fatalf("Recovery = %+v, want 1 attempt recomputing 1 server", rec)
	}
	if len(res.Output) != 8 || len(oracle.Output) != 8 {
		t.Fatalf("%d answers after recovery, %d fault-free, want 8", len(res.Output), len(oracle.Output))
	}
	for i := range oracle.Output {
		if !slices.Equal(res.Output[i], oracle.Output[i]) {
			t.Fatalf("answer %d is %v after recovery, %v fault-free", i, res.Output[i], oracle.Output[i])
		}
	}
}

// TestStandingSeedReplaysTornRound: the standing seed shares Run's recovery
// path — a torn seed round is replayed in place and the seeded result
// matches the fault-free oracle.
func TestStandingSeedReplaysTornRound(t *testing.T) {
	db := testDB()
	plan := &PhysicalPlan{
		Strategy: "test",
		Virtual:  4,
		Physical: 2,
		Router:   modRouter(4),
		Query:    copyS,
	}
	q := copyS
	oracle, err := NewStanding(plan, q, db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed uint64) *mpc.Faults { return &mpc.Faults{Seed: seed, TornRound: 0.5} }
	seed := findRetrySeed(t, mk, func(f *mpc.Faults) bool {
		return f.WouldTearRoundAttempt(1, 1) && !f.WouldTearRoundAttempt(1, 2)
	})
	var rec Recovery
	var rs recordSleep
	st, err := NewStanding(plan, q, db, Config{
		Faults:   mk(seed),
		Retry:    Retry{Sleep: rs.sleep},
		Recovery: &rec,
	})
	if err != nil {
		t.Fatalf("recoverable torn seed surfaced: %v", err)
	}
	if rec.Attempts != 1 || rec.RoundsReplayed != 1 {
		t.Fatalf("Recovery = %+v, want 1 attempt replaying 1 round", rec)
	}
	want, got := oracle.Counted().Tuples(), st.Counted().Tuples()
	if len(want) != len(got) {
		t.Fatalf("seeded result = %d tuples, want %d", len(got), len(want))
	}
}

// TestRetryPolicyResolution pins the Retry zero-value semantics and the
// deterministic backoff shape.
func TestRetryPolicyResolution(t *testing.T) {
	cases := []struct {
		max  int
		want int
	}{{0, DefaultRetryAttempts - 1}, {-1, 0}, {1, 0}, {5, 4}}
	for _, c := range cases {
		if got := (Retry{MaxAttempts: c.max}).retries(); got != c.want {
			t.Errorf("MaxAttempts %d: retries = %d, want %d", c.max, got, c.want)
		}
	}

	r := Retry{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, JitterSeed: 7}
	prevCap := time.Duration(0)
	for retry := 1; retry <= 6; retry++ {
		// The un-jittered wait doubles per retry, capped at MaxBackoff;
		// jitter keeps the realized wait in [d/2, d).
		d := time.Millisecond << (retry - 1)
		if d > 8*time.Millisecond {
			d = 8 * time.Millisecond
		}
		got := r.backoff(retry)
		if got < d/2 || got >= d {
			t.Errorf("retry %d: backoff %v outside [%v, %v)", retry, got, d/2, d)
		}
		if got2 := r.backoff(retry); got2 != got {
			t.Errorf("retry %d: backoff not deterministic: %v vs %v", retry, got, got2)
		}
		if d == 8*time.Millisecond && prevCap != 0 && got >= 8*time.Millisecond {
			t.Errorf("retry %d: backoff %v above cap", retry, got)
		}
		if d == 8*time.Millisecond {
			prevCap = got
		}
	}
	if got := (Retry{BaseBackoff: -1}).backoff(3); got != 0 {
		t.Errorf("negative BaseBackoff: backoff = %v, want 0", got)
	}
	var rec Recovery
	if err := (Retry{BaseBackoff: -1}).Wait(context.Background(), 1, &rec); err != nil || rec.BackoffWaits != 0 {
		t.Errorf("disabled backoff waited: err=%v rec=%+v", err, rec)
	}
}
