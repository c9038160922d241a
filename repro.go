package repro

import (
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/hypercube"
	"repro/internal/mapreduce"
	"repro/internal/packing"
	"repro/internal/query"
	"repro/internal/rounds"
	"repro/internal/skew"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Re-exported core types. The facade keeps downstream users off the
// internal packages while exposing the full engine.
type (
	// Query is a full conjunctive query without self-joins.
	Query = query.Query
	// Atom is one relational atom of a query body.
	Atom = query.Atom
	// VarSet is a set of query-variable indices.
	VarSet = query.VarSet
	// Tuple is one relation row.
	Tuple = data.Tuple
	// Relation is a named relation instance over an integer domain.
	Relation = data.Relation
	// Database is a set of relations keyed by name. Serving workloads
	// mutate it with Apply (batched Delta of inserts/deletes), which
	// maintains fingerprints and per-attribute statistics incrementally.
	Database = data.Database
	// PhysicalPlan is the unified executable form every strategy planner
	// lowers to; exec.Run is the single executor they share.
	PhysicalPlan = exec.PhysicalPlan
	// Pipeline is the multi-round executable form: an ordered sequence of
	// executor stages sharing one persistent cluster, with intermediates
	// resident on the servers between rounds; exec.RunPipeline executes it.
	Pipeline = exec.Pipeline
	// Plan describes the algorithm the engine chose and its bound.
	Plan = core.Plan
	// Result is an executed plan with answers and realized loads.
	Result = core.Result
	// Strategy identifies the chosen algorithm.
	Strategy = core.Strategy
	// HyperCubeConfig configures a direct HyperCube run.
	HyperCubeConfig = hypercube.Config
	// HyperCubeResult reports a direct HyperCube run.
	HyperCubeResult = hypercube.Result
	// SkewJoinConfig configures the §4.1 two-table skew join.
	SkewJoinConfig = skew.JoinConfig
	// SkewJoinResult reports a §4.1 run.
	SkewJoinResult = skew.JoinResult
	// GeneralSkewConfig configures the §4.2 bin-combination algorithm.
	GeneralSkewConfig = skew.GeneralConfig
	// GeneralSkewResult reports a §4.2 run.
	GeneralSkewResult = skew.GeneralResult
	// HeavySpec plants one heavy hitter in a generated relation.
	HeavySpec = workload.HeavySpec
	// AtomSpec describes one relation for ForQuery generation.
	AtomSpec = workload.AtomSpec
	// PackingBound is one packing vertex with its induced load bound.
	PackingBound = bounds.PackingBound
	// ResidualBound is one saturating residual packing with its bound.
	ResidualBound = bounds.ResidualBound
)

// Strategies the engine can choose or be forced into.
const (
	StrategyHyperCube      = core.HyperCube
	StrategySkewJoin       = core.SkewJoin
	StrategyBinCombination = core.BinCombination
	// StrategyMultiRound is the one-join-per-round pipeline; the engine
	// only chooses it on its own when Config.ConsiderMultiRound is set and
	// its predicted SumMaxBits undercuts the one-round strategies.
	StrategyMultiRound = core.MultiRound
)

// ParseQuery parses "q(x,y,z) = S1(x,z), S2(y,z)" (":-" also accepted).
func ParseQuery(s string) (*Query, error) { return query.Parse(s) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(s string) *Query { return query.MustParse(s) }

// Query constructors for the families the paper analyzes.
var (
	// TriangleQuery returns C3 (Eq. 4 of the paper).
	TriangleQuery = query.Triangle
	// Join2Query returns q(x,y,z) = S1(x,z), S2(y,z).
	Join2Query = query.Join2
	// PathQuery returns the length-ℓ chain L_ℓ.
	PathQuery = query.Path
	// CycleQuery returns the k-cycle C_k.
	CycleQuery = query.Cycle
	// StarQuery returns the r-leaf star.
	StarQuery = query.Star
	// CartesianQuery returns the u-way cartesian product.
	CartesianQuery = query.Cartesian
)

// NewDatabase returns an empty database.
func NewDatabase() *Database { return data.NewDatabase() }

// NewRelation returns an empty relation with the given shape.
func NewRelation(name string, arity int, domain int64) *Relation {
	return data.NewRelation(name, arity, domain)
}

// Workload generators (deterministic in their seed, duplicate-free).
var (
	// UniformRelation draws m distinct tuples uniformly from [domain]^arity.
	UniformRelation = workload.Uniform
	// MatchingRelation keeps every value unique per column.
	MatchingRelation = workload.Matching
	// ZipfRelation skews one column with a Zipf(s) distribution.
	ZipfRelation = workload.Zipf
	// SingleValueRelation pins one column to a single value (worst case).
	SingleValueRelation = workload.SingleValue
	// PlantedHeavyRelation plants exact heavy hitters in one column.
	PlantedHeavyRelation = workload.PlantedHeavy
	// DegreeSequenceRelation realizes an exact degree sequence.
	DegreeSequenceRelation = workload.DegreeSequence
	// SkewedGraphRelation generates a power-law directed graph.
	SkewedGraphRelation = workload.SkewedGraph
	// DatabaseForQuery generates one uniform relation per atom.
	DatabaseForQuery = workload.ForQuery
)

// RunHyperCube executes the §3.1 HyperCube algorithm directly.
func RunHyperCube(q *Query, db *Database, cfg HyperCubeConfig) HyperCubeResult {
	return hypercube.Run(q, db, cfg)
}

// RunSkewJoin executes the §4.1 skew join over relations "S1","S2".
func RunSkewJoin(db *Database, cfg SkewJoinConfig) SkewJoinResult {
	return skew.RunJoin(db, cfg)
}

// RunGeneralSkew executes the §4.2 bin-combination algorithm.
func RunGeneralSkew(q *Query, db *Database, cfg GeneralSkewConfig) GeneralSkewResult {
	return skew.RunGeneral(q, db, cfg)
}

// DatabaseFingerprint returns the content hash the engine's plan cache
// keys on: equal fingerprints mean any cached plan remains valid. The
// hash is maintained incrementally by the relations (first call scans,
// Database.Apply updates per delta), so it costs O(relations) once warm.
// It holds the database's read lock, so it is safe to call concurrently
// with Apply.
func DatabaseFingerprint(db *Database) uint64 {
	db.RLock()
	defer db.RUnlock()
	return stats.Fingerprint(db)
}

// VanillaJoin runs the baseline standard hash join on z for relations
// "S1","S2" (the algorithm that degrades to Ω(m) under skew), returning
// the answers and the max per-server load in bits.
func VanillaJoin(db *Database, p int, seed uint64) ([]Tuple, int64) {
	return skew.VanillaHashJoin(db, p, seed)
}

// Multi-round evaluation (the traditional one-join-per-round strategy the
// paper's introduction contrasts with its one-round algorithms). Plans are
// lowered to a Pipeline of executor stages and run on one persistent
// simulated cluster with intermediates resident on the servers.
type (
	// MultiRoundPlan is a left-deep sequence of binary join rounds.
	MultiRoundPlan = rounds.Plan
	// MultiRoundConfig configures multi-round planning and execution.
	MultiRoundConfig = rounds.Config
	// MultiRoundResult reports per-round and aggregate loads.
	MultiRoundResult = rounds.Result
	// MultiRoundPipelinePlan is a lowered, reusable multi-round plan with
	// its cost prediction (what the engine caches and cost-compares).
	MultiRoundPipelinePlan = rounds.PipelinePlan
)

// BuildMultiRoundPlan constructs a greedy left-deep plan for q.
func BuildMultiRoundPlan(q *Query) MultiRoundPlan { return rounds.BuildPlan(q) }

// PlanMultiRound lowers the left-deep plan for q over db's statistics into
// a reusable pipeline plan.
func PlanMultiRound(q *Query, db *Database, cfg MultiRoundConfig) *MultiRoundPipelinePlan {
	return rounds.PlanPipeline(q, db, cfg)
}

// RunMultiRound lowers and executes a multi-round plan on the simulator.
func RunMultiRound(plan MultiRoundPlan, db *Database, cfg MultiRoundConfig) MultiRoundResult {
	return rounds.Run(plan, db, cfg)
}

// LowerBound returns Theorem 1.2's L_lower (bits) for q over db at p
// servers, with a description of the witnessing packing family.
func LowerBound(q *Query, db *Database, p int) (float64, string) {
	return bounds.BestLower(q, db, p, 0)
}

// SimpleLowerBound returns the cardinality-only bound of Theorem 3.5 and
// the per-packing table (Example 3.7's table for C3). bitsM holds M_j in
// bits per atom.
func SimpleLowerBound(q *Query, bitsM []float64, p int) (float64, []PackingBound) {
	return bounds.SimpleLower(q, bitsM, p)
}

// ResidualLowerBound returns the Theorem 4.7 bound for a variable set x.
func ResidualLowerBound(q *Query, x VarSet, db *Database, p int) (float64, []ResidualBound) {
	return bounds.ResidualLower(q, x, db, p)
}

// SpaceExponent returns the §3.3 space exponent for the given statistics.
func SpaceExponent(q *Query, bitsM []float64, p int) float64 {
	return bounds.SpaceExponent(q, bitsM, p)
}

// PackingVertices returns pk(q): the non-dominated vertices of the
// fractional edge packing polytope, as float weights per atom.
func PackingVertices(q *Query) [][]float64 {
	var out [][]float64
	for _, v := range packing.PK(q) {
		out = append(out, v.Floats())
	}
	return out
}

// Tau returns τ*(q), the maximum fractional edge packing value (equal to
// the fractional vertex covering number).
func Tau(q *Query) float64 { return packing.Tau(q) }

// AGMBound returns the worst-case output size bound Π_j m_j^{u_j}
// minimized over fractional edge covers.
func AGMBound(q *Query, m []float64) float64 { return packing.AGMBound(q, m) }

// ReplicationLowerBound returns the Theorem 5.1 MapReduce bound on the
// replication rate for reducer size l (bits).
func ReplicationLowerBound(q *Query, bitsM []float64, l float64) float64 {
	return mapreduce.ReplicationLowerBound(q, bitsM, l)
}
