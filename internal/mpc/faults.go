// Deterministic fault injection for the communication/compute simulator.
//
// Faults lets robustness tests drive every serving degradation path —
// torn communication rounds, failed local compute, delayed workers — from a
// seed instead of sleeps: each decision is a pure hash of (seed, stream,
// event index), so a given seed produces the same fault schedule on every
// run, under -race, at any GOMAXPROCS. Production paths pay one nil check.
package mpc

import (
	"errors"
	"sync/atomic"

	"repro/internal/hashing"
)

// Typed injected-fault errors. The executor treats them as recoverable
// degradations (replay the round or re-run the failed servers, within the
// retry budget) — unlike router-contract violations, which remain panics.
var (
	// ErrTornRound reports a communication round in which only a prefix of
	// the send parts arrived. The round is transactional: the staged prefix
	// is discarded wholesale and receiver fragments are bit-identical to
	// their pre-round state, so the round can simply be re-driven (see
	// Cluster.MarkReplay).
	ErrTornRound = errors.New("mpc: torn communication round (injected fault)")
	// ErrComputeFailed reports a server whose local-computation phase
	// failed; the round's output is incomplete until the failed servers
	// are re-run.
	ErrComputeFailed = errors.New("mpc: local compute failed (injected fault)")
)

// Fault decision streams: each fault family hashes its events in its own
// stream so enabling one family never perturbs another's schedule.
const (
	streamTorn uint64 = 0x746f726e // "torn"
	streamComp uint64 = 0x636f6d70 // "comp"
	streamStrg uint64 = 0x73747267 // "strg"
)

// Faults is a seeded fault-injection schedule threaded through exec.Config
// into the cluster. The zero value (and a nil *Faults) injects nothing.
// Probabilities are per event: per communication round for TornRound, per
// (compute phase, server) for ComputeFail, per routed send part for
// Straggler. Decisions are deterministic in (Seed, event index); event
// indexes advance on the cluster's own round/compute counters, so a
// sequential run replays identically regardless of scheduling.
//
// Every event additionally carries an attempt dimension: when the executor
// re-drives a torn round or re-runs failed servers, the cluster keeps the
// same round/phase number and advances the attempt (see Cluster.MarkReplay),
// so a retry draws a fresh decision instead of deterministically re-hitting
// the same injected event. Attempt 1 hashes exactly as the pre-attempt
// schedule did, so existing seeds fault identically on first tries; the
// WouldXxxAttempt predicates let tests construct multi-fault scenarios
// (e.g. "round 2 tears on attempts 1 and 2, heals on 3") directly instead
// of seed-searching.
//
// One Faults value must not be shared by concurrent executions: the event
// counters are atomic, but interleaving would make event indexes — and so
// the fault schedule — depend on scheduling order.
type Faults struct {
	// Seed pins the schedule; equal seeds and equal call sequences fault
	// identically.
	Seed uint64
	// TornRound is the probability a communication round tears: only a
	// prefix of its send parts is delivered and the round returns
	// ErrTornRound.
	TornRound float64
	// ComputeFail is the probability one server's local compute phase
	// fails, failing the execution with ErrComputeFailed.
	ComputeFail float64
	// Straggler is the probability a route worker stalls at a send-part
	// checkpoint, invoking OnStraggle before routing the part. With a nil
	// OnStraggle it is a no-op: the hook is the delay, so tests block in it
	// (e.g. until a context is canceled) instead of sleeping.
	Straggler float64
	// OnStraggle is called synchronously at each straggling checkpoint.
	OnStraggle func()

	rounds   atomic.Uint64
	computes atomic.Uint64
}

// chance returns the deterministic decision for one event.
func (f *Faults) chance(stream, event uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := hashing.Mix64(f.Seed ^ hashing.Mix64(stream) ^ hashing.Mix64(event))
	return float64(h>>11)/float64(uint64(1)<<53) < p
}

// nextRound advances and returns the communication-round counter.
func (f *Faults) nextRound() uint64 { return f.rounds.Add(1) }

// nextComputePhase advances and returns the compute-phase counter.
func (f *Faults) nextComputePhase() uint64 { return f.computes.Add(1) }

// attemptEvent folds the attempt dimension into an event index. Attempt 1
// (and 0, for callers that don't track attempts) maps to the base event
// itself, so first-try schedules are identical to the pre-attempt ones;
// later attempts re-mix the event so each retry draws an independent
// decision.
func attemptEvent(event, attempt uint64) uint64 {
	if attempt <= 1 {
		return event
	}
	return hashing.Mix64(event ^ hashing.Mix64(attempt))
}

// WouldTearRoundAttempt reports whether attempt number `attempt` (1-based)
// of communication round `round` tears under this schedule. A replayed
// round keeps its round number and advances the attempt, so tests compose
// scenarios like "round 2 tears twice, then heals" by checking attempts
// 1..3 directly.
func (f *Faults) WouldTearRoundAttempt(round, attempt uint64) bool {
	return f.chance(streamTorn, attemptEvent(round, attempt), f.TornRound)
}

// WouldFailComputeAttempt reports whether the given server fails on attempt
// number `attempt` (1-based) of compute phase `phase`. Re-running the
// failed servers of a phase advances the attempt, never the phase number.
func (f *Faults) WouldFailComputeAttempt(phase, attempt uint64, server int) bool {
	return f.chance(streamComp, attemptEvent(phase<<20^uint64(server), attempt), f.ComputeFail)
}

// WouldStraggleAttempt reports whether part index `part` of attempt number
// `attempt` of communication round `round` stalls at its checkpoint.
func (f *Faults) WouldStraggleAttempt(round, attempt uint64, part int) bool {
	return f.chance(streamStrg, attemptEvent(round<<20^uint64(part), attempt), f.Straggler)
}
