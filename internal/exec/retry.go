// Fault recovery for the execution layer.
//
// The MPC model computes in rounds separated by barriers, which makes the
// round the natural unit of recovery: the communication engine logs where a
// round's rows go and commits them only when every send part arrived (see
// internal/mpc/comm.go), so a torn round leaves resident state
// bit-identical to the pre-round state and can simply be re-driven. Execute
// builds on that invariant — a fault in round k replays only round k, and a
// failed compute phase re-runs only the failed servers (local compute is a
// pure function of a server's fragments). Retry is the policy that bounds
// this recovery; Recovery reports how much of it an execution needed.
package exec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/hashing"
	"repro/internal/mpc"
)

// Defaults for the zero Retry value.
const (
	// DefaultRetryAttempts is the number of times a faulting unit of work
	// may be driven, counting the first try.
	DefaultRetryAttempts = 3
	// DefaultRetryBaseBackoff is the wait before the first retry.
	DefaultRetryBaseBackoff = time.Millisecond
	// DefaultRetryMaxBackoff caps the exponential backoff.
	DefaultRetryMaxBackoff = 100 * time.Millisecond
)

// Retry bounds an execution's fault recovery. The zero value is the default
// policy (DefaultRetryAttempts tries, exponential backoff from
// DefaultRetryBaseBackoff capped at DefaultRetryMaxBackoff, jittered).
type Retry struct {
	// MaxAttempts is the number of times any faulting unit of work — a
	// communication round, a compute phase's failing servers — may be
	// driven, counting the first try; the budget of MaxAttempts-1 retries
	// is shared across the whole execution, so a run can't burn unbounded
	// time recovering a persistently faulty cluster. 0 means
	// DefaultRetryAttempts; negative disables recovery entirely (faults
	// surface on first occurrence).
	MaxAttempts int
	// BaseBackoff is the wait before the first retry; each further retry
	// doubles it, capped at MaxBackoff. 0 means DefaultRetryBaseBackoff;
	// negative disables waiting.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff; 0 means
	// DefaultRetryMaxBackoff.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter applied to each wait
	// (uniform in [d/2, d)). Jitter is a pure hash of (JitterSeed, retry
	// number) — no global randomness, no wall clock — so a seeded run
	// backs off identically every time.
	JitterSeed uint64
	// Sleep, when non-nil, replaces the real timer wait; tests inject a
	// recording hook so every fault-recovery test stays sleep-free. It
	// receives the configured context (possibly nil) and the jittered
	// duration, and its error aborts the retry.
	Sleep func(ctx context.Context, d time.Duration) error
}

// retries resolves the retry budget the policy grants one execution.
func (r Retry) retries() int {
	switch {
	case r.MaxAttempts == 0:
		return DefaultRetryAttempts - 1
	case r.MaxAttempts < 1:
		return 0
	default:
		return r.MaxAttempts - 1
	}
}

// backoff returns the jittered wait before retry number `retry` (1-based).
func (r Retry) backoff(retry int) time.Duration {
	base := r.BaseBackoff
	if base < 0 {
		return 0
	}
	if base == 0 {
		base = DefaultRetryBaseBackoff
	}
	lim := r.MaxBackoff
	if lim <= 0 {
		lim = DefaultRetryMaxBackoff
	}
	d := base
	for i := 1; i < retry && d < lim; i++ {
		d *= 2
	}
	if d > lim {
		d = lim
	}
	h := hashing.Mix64(r.JitterSeed ^ hashing.Mix64(uint64(retry)))
	frac := float64(h>>11) / float64(uint64(1)<<53)
	return d/2 + time.Duration(float64(d/2)*frac)
}

// Wait blocks for retry number `retry`'s backoff (through the Sleep hook
// when set), recording it in rec. A canceled context aborts the wait.
// Exported so owners of higher-level retries (the standing-query reseed)
// share the same backoff policy and accounting.
func (r Retry) Wait(ctx context.Context, retry int, rec *Recovery) error {
	d := r.backoff(retry)
	if d <= 0 {
		return nil
	}
	rec.BackoffWaits++
	rec.Backoff += d
	if r.Sleep != nil {
		return r.Sleep(ctx, d)
	}
	if ctx == nil {
		//skewlint:allow nodeterminismbreak — the default for a nil Sleep hook and nil ctx is a real wait
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Recovery reports how much fault recovery one execution needed. The zero
// value means a clean run.
type Recovery struct {
	// Attempts is the number of recovery attempts consumed from the retry
	// budget: round replays plus failed-server recompute passes.
	Attempts int
	// RoundsReplayed counts communication rounds re-driven in place after
	// tearing.
	RoundsReplayed int
	// ServersRecomputed counts servers whose local compute was re-run
	// after a failed compute phase (successful servers' outputs are
	// retained, never recomputed).
	ServersRecomputed int
	// BackoffWaits counts the backoff waits taken; Backoff sums their
	// jittered durations (as scheduled — a wait cut short by cancellation
	// still counts in full).
	BackoffWaits int
	Backoff      time.Duration
}

// Add accumulates other into r (standing queries sum the recovery of their
// seed and advance executions).
func (r *Recovery) Add(other Recovery) {
	r.Attempts += other.Attempts
	r.RoundsReplayed += other.RoundsReplayed
	r.ServersRecomputed += other.ServersRecomputed
	r.BackoffWaits += other.BackoffWaits
	r.Backoff += other.Backoff
}

// retrier tracks one execution's shared recovery budget.
type retrier struct {
	cfg     *Config
	cluster *mpc.Cluster
	rt      Retry
	rec     *Recovery
	retries int
	budget  int
}

func newRetrier(cfg *Config, cluster *mpc.Cluster) retrier {
	r := retrier{cfg: cfg, cluster: cluster, rt: cfg.Retry, rec: cfg.Recovery}
	if r.rec == nil {
		r.rec = &Recovery{}
	}
	r.budget = r.rt.retries()
	return r
}

// allow consumes one retry from the budget if one remains and the context
// is still alive.
func (r *retrier) allow() bool {
	if r.retries >= r.budget || r.cfg.ctxErr() != nil {
		return false
	}
	r.retries++
	r.rec.Attempts++
	return true
}

// wait blocks for the current retry's backoff.
func (r *retrier) wait() error {
	return r.rt.Wait(r.cfg.Ctx, r.retries, r.rec)
}

// driveRound runs one communication round, re-driving it in place when it
// tears: the staged-commit engine guarantees a torn round left resident
// state untouched, so the replay sees exactly the pre-round state. Each
// replay advances the fault schedule's attempt dimension and consumes one
// retry from the execution's budget. replays, when non-nil, additionally
// counts this call's replays (per-stage accounting).
func (r *retrier) driveRound(replays *int, round func() error) error {
	for {
		err := round()
		if err == nil {
			return nil
		}
		if !errors.Is(err, mpc.ErrTornRound) || !r.allow() {
			return err
		}
		if werr := r.wait(); werr != nil {
			return werr
		}
		r.rec.RoundsReplayed++
		if replays != nil {
			*replays++
		}
		r.cluster.MarkReplay()
	}
}

// driveCompute runs one compute phase — body on every server — re-running
// only the failing servers until the phase is clean or the budget is spent.
// Compute is a pure function of a server's fragments and a failed server
// never ran body (its inputs are untouched), so the re-run sees unchanged
// state while the survivors' results stand. strategy and stage (0 for a
// one-round plan) name the phase in the budget-exhausted error.
func (r *retrier) driveCompute(strategy string, stage int, body func(s *mpc.Server)) error {
	failed := r.cluster.ComputeOn(nil, body)
	for len(failed) > 0 {
		if !r.allow() {
			return fmt.Errorf("exec: %s stage %d: %d server(s) failed compute: %w", strategy, stage, len(failed), mpc.ErrComputeFailed)
		}
		if werr := r.wait(); werr != nil {
			return werr
		}
		r.rec.ServersRecomputed += len(failed)
		failed = r.cluster.ComputeOn(failed, body)
	}
	return nil
}
