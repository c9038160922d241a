package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/mpc"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/workload"
)

// FaultBench is the JSON report of round-granular fault recovery on the
// triangle pipeline: for each communication round k, a seeded schedule
// tears exactly round k's first attempt, and the bench
// compares the transactional replay path (re-drive only round k against the
// surviving resident state) against the pre-recovery discipline (the torn
// execution fails wholesale and the caller re-executes the entire pipeline).
// Replaying round k skips re-routing rounds 1..k-1's base relations and
// re-computing their intermediates, so the mean recovered latency across
// torn rounds must come out strictly below the full-retry mean — that gap is
// the point of staged delivery commit.
type FaultBench struct {
	Instance string `json:"instance"`
	GoArch   string `json:"goarch"`
	NumCPU   int    `json:"num_cpu"`

	// PipelineRounds is the triangle pipeline's communication-round count.
	PipelineRounds int `json:"pipeline_rounds"`
	// CleanMs is the fault-free end-to-end pipeline latency (median).
	CleanMs float64 `json:"clean_ms"`
	// ReplayMsPerRound[k-1] is the recovered latency when round k tears and
	// is replayed in place; FullRetryMsPerRound[k-1] is the same fault
	// recovered by failing the execution and re-running the pipeline from
	// scratch. Medians over the sample count.
	ReplayMsPerRound    []float64 `json:"replay_ms_per_round"`
	FullRetryMsPerRound []float64 `json:"full_retry_ms_per_round"`
	// Means across torn rounds, and the acceptance check.
	ReplayMeanMs    float64 `json:"replay_mean_ms"`
	FullRetryMeanMs float64 `json:"full_retry_mean_ms"`
	ReplayCheaper   bool    `json:"replay_cheaper"`
}

// pipelineRoundCount counts the communication rounds one execution drives:
// one per stage input kind (resident shuffle, base routing).
func pipelineRoundCount(pipe *exec.Pipeline) int {
	n := 0
	for i := range pipe.Stages {
		if len(pipe.Stages[i].Resident) > 0 {
			n++
		}
		if len(pipe.Stages[i].Base) > 0 {
			n++
		}
	}
	return n
}

// findTearSeed returns a fault seed that tears exactly round k's first
// attempt and keeps every other round's first attempt — including the
// full-retry rerun's rounds k+1..k+total — clean, with round k's replay
// attempt clean too.
func findTearSeed(k, total uint64) (uint64, error) {
	for seed := uint64(0); seed < 200000; seed++ {
		f := &mpc.Faults{Seed: seed, TornRound: 0.5}
		if !f.WouldTearRoundAttempt(k, 1) || f.WouldTearRoundAttempt(k, 2) {
			continue
		}
		ok := true
		for r := uint64(1); r <= k+total; r++ {
			if r != k && f.WouldTearRoundAttempt(r, 1) {
				ok = false
				break
			}
		}
		if ok {
			return seed, nil
		}
	}
	return 0, fmt.Errorf("no fault seed tears exactly round %d of %d", k, total)
}

func medianMs(samples []time.Duration) float64 {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return float64(samples[len(samples)/2].Nanoseconds()) / 1e6
}

// runFaultBench measures round-replay vs whole-execution recovery latency on
// the triangle pipeline and writes the JSON baseline.
func runFaultBench(path string) error {
	const samplesPerPoint = 9
	db := data.NewDatabase()
	for j, name := range []string{"S1", "S2", "S3"} {
		db.Put(workload.Matching(name, 2, 5000, 1<<20, int64(j+1)))
	}
	q := query.Triangle()
	plan := rounds.PlanPipeline(q, db, rounds.Config{P: 64, Seed: 3})
	pipe := plan.Pipe
	total := pipelineRoundCount(pipe)

	out := FaultBench{
		Instance:       "triangle matchings m=5000 domain=2^20 p=64; torn round k healed on attempt 2",
		GoArch:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
		PipelineRounds: total,
	}

	clean := make([]time.Duration, 0, samplesPerPoint)
	for i := 0; i < samplesPerPoint; i++ {
		start := time.Now()
		if _, err := exec.RunPipeline(pipe, db, exec.Config{}); err != nil {
			return err
		}
		clean = append(clean, time.Since(start))
	}
	out.CleanMs = medianMs(clean)

	for k := 1; k <= total; k++ {
		seed, err := findTearSeed(uint64(k), uint64(total))
		if err != nil {
			return err
		}

		// Replay path: the budgeted retry re-drives only round k in place.
		// Backoff is disabled so the sample is pure recovery work.
		replay := make([]time.Duration, 0, samplesPerPoint)
		for i := 0; i < samplesPerPoint; i++ {
			f := &mpc.Faults{Seed: seed, TornRound: 0.5}
			var rec exec.Recovery
			start := time.Now()
			_, err := exec.RunPipeline(pipe, db, exec.Config{
				Faults:   f,
				Retry:    exec.Retry{BaseBackoff: -1},
				Recovery: &rec,
			})
			if err != nil {
				return fmt.Errorf("replay path, round %d: %w", k, err)
			}
			replay = append(replay, time.Since(start))
			if rec.RoundsReplayed != 1 {
				return fmt.Errorf("replay path, round %d: %d rounds replayed, want 1", k, rec.RoundsReplayed)
			}
		}
		out.ReplayMsPerRound = append(out.ReplayMsPerRound, medianMs(replay))

		// Full-retry path (the pre-recovery discipline): recovery disabled,
		// the torn execution fails wholesale, and the pipeline is re-executed
		// from scratch against the same fault stream.
		full := make([]time.Duration, 0, samplesPerPoint)
		for i := 0; i < samplesPerPoint; i++ {
			f := &mpc.Faults{Seed: seed, TornRound: 0.5}
			cfg := exec.Config{Faults: f, Retry: exec.Retry{MaxAttempts: -1}}
			start := time.Now()
			_, err := exec.RunPipeline(pipe, db, cfg)
			if !errors.Is(err, mpc.ErrTornRound) {
				return fmt.Errorf("full path, round %d: err = %v, want ErrTornRound", k, err)
			}
			if _, err := exec.RunPipeline(pipe, db, cfg); err != nil {
				return fmt.Errorf("full path rerun, round %d: %w", k, err)
			}
			full = append(full, time.Since(start))
		}
		out.FullRetryMsPerRound = append(out.FullRetryMsPerRound, medianMs(full))
	}

	for k := 0; k < total; k++ {
		out.ReplayMeanMs += out.ReplayMsPerRound[k] / float64(total)
		out.FullRetryMeanMs += out.FullRetryMsPerRound[k] / float64(total)
	}
	out.ReplayCheaper = out.ReplayMeanMs < out.FullRetryMeanMs
	if !out.ReplayCheaper {
		fmt.Fprintf(os.Stderr, "skewbench: faultbench: replay mean %.3fms not below full-retry mean %.3fms\n",
			out.ReplayMeanMs, out.FullRetryMeanMs)
	}

	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("fault baseline written to %s\n%s", path, blob)
	return nil
}
