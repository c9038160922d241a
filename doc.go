// Package repro is a from-scratch Go reproduction of "Skew in Parallel
// Query Processing" (Beame, Koutris, Suciu — PODS 2014): one-round
// evaluation of full conjunctive queries in the Massively Parallel
// Communication (MPC) model, with communication cost characterized by
// fractional edge packings.
//
// The package is a facade over the internal implementation:
//
//   - Session: the serving-grade entry point. Open(Config) validates an
//     immutable configuration; Exec(ctx, q, db, opts...) evaluates with
//     per-call functional options (WithStrategy, WithoutCache, WithP),
//     honors context cancellation both between communication rounds and
//     mid-round at the routing checkpoints inside them, and serves from a
//     plan cache that databases may mutate under: Database.Apply applies
//     batched tuple deltas while maintaining content fingerprints
//     incrementally, and Config.ReplanDriftFactor arms adaptive
//     re-planning when realized loads drift from the statistics a cached
//     plan froze. Standing(ctx,
//     q, db, opts...) registers an incremental view over a mutable
//     database: after the seeding execution, each Advance routes only the
//     applied delta tuples — not the database — through the frozen
//     physical plan's router into resident per-server state, maintaining
//     the materialized result (including exact delete retraction via
//     derivation counting) and emitting a ResultDelta.
//
//     Sessions are built for sustained concurrent serving: reads execute
//     against immutable snapshot epochs (a read after Database.Apply
//     publishes the next one, so an Exec never blocks behind a writer or
//     observes a half-applied delta); admission control (Config.MaxInFlight,
//     Config.MaxQueue) bounds in-flight executions and sheds the excess
//     promptly with ErrOverloaded; Close drains in-flight calls and then
//     rejects the rest with ErrSessionClosed; and Config.Faults arms a
//     seeded, deterministic fault-injection schedule (torn rounds, failed
//     computes, stragglers) for exercising every degradation path.
//
//     Fault recovery is round-granular. The sharded communication engine
//     commits a round's deliveries transactionally, so a torn round leaves
//     resident state bit-identical to the pre-round state and is replayed
//     in place — a fault in round k of a multi-round pipeline never repeats
//     rounds 1..k-1 — and a failed compute phase re-runs only the failed
//     servers. Config.Retry bounds the recovery (a shared attempt budget
//     with capped, jittered exponential backoff; Result.Recovery reports
//     what a run consumed); faults that outlive the budget surface as
//     ErrTornRound or ErrComputeFailed. Config.BreakerThreshold adds a
//     circuit breaker on top: a persistently faulting cluster sheds calls
//     fast with ErrCircuitOpen while one probe at a time tests for
//     recovery (Session.HealthStats).
//
//     Serving sessions also adapt the physical layout to skew: after
//     planning, relations the chosen plan routes by a single heavy
//     attribute are given a heavy-partition column layout (light rows
//     packed first, then one contiguous run per heavy value), rebuilt
//     lazily as deltas shift the heavy hitters, so the routers resolve one
//     plan per heavy run and ship whole column spans instead of routing
//     tuple by tuple. The layout is a pure physical reorder — answers,
//     realized loads, and fingerprints are identical either way — so every
//     Exec maintains it; CacheStats.Repartitions counts rebuilds.
//
//   - Run: one uncached execution of one forced strategy, without a
//     session; HyperCube shares (1, 1, p) on Join2Query are the paper's
//     standard hash join baseline.
//
//   - Engine (internal/core): plans and executes a query on p simulated
//     servers, choosing between plain HyperCube (§3), the specialized skew
//     join (§4.1), and the general bin-combination algorithm (§4.2) based
//     on heavy-hitter statistics. Every strategy lowers to a PhysicalPlan
//     run by the unified executor (internal/exec), and plans are cached
//     across executions on unchanged inputs. Session wraps it for serving.
//
//   - Lower bounds (internal/bounds): the matching communication lower
//     bounds of Theorems 3.5 and 4.7, in bits.
//
//   - Packings (internal/packing): exact fractional edge packing polytope
//     vertices, pk(q), τ*, covers, and the AGM bound.
//
//   - Workloads (internal/workload): the synthetic instance generators the
//     experiments use (uniform, matching, Zipf, planted heavy hitters,
//     degree sequences).
//
// A minimal serving session:
//
//	q := repro.MustParseQuery("C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)")
//	db := repro.NewDatabase()
//	db.Put(repro.UniformRelation("S1", 2, 10000, 1<<20, 1))
//	db.Put(repro.UniformRelation("S2", 2, 10000, 1<<20, 2))
//	db.Put(repro.UniformRelation("S3", 2, 10000, 1<<20, 3))
//	s, err := repro.Open(repro.Config{P: 64, ReplanDriftFactor: 2})
//	if err != nil { ... }
//	res, err := s.Exec(ctx, q, db)
//	if err != nil { ... }
//	fmt.Println(len(res.Output), res.MaxLoadBits, res.Plan.Reason)
//
//	// Mutate under the live plan cache; fingerprints update in O(delta).
//	err = db.Apply(repro.NewDelta().Insert("S1", 7, 8).Delete("S2", 1, 2))
//
// See DESIGN.md for the planner/executor layering and system inventory.
// The paper's claims are tests in the packages they check (go test ./...),
// and `go run ./bench` is the one end-to-end performance benchmark
// (bench/README.md). The engine's invariant contracts (deterministic core,
// allocation-free routing hot paths, context flow, error wrapping) are
// mechanically enforced by the custom static-analysis suite in
// internal/lint: run it with `go run ./cmd/skewlint ./...`.
package repro
