package repro

import (
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mapreduce"
	"repro/internal/packing"
	"repro/internal/query"
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
	// maintains content fingerprints incrementally.
	Database = data.Database
	// Plan describes the algorithm the engine chose and its bound.
	Plan = core.Plan
	// Result is an executed plan with answers and realized loads.
	Result = core.Result
	// Strategy identifies the chosen algorithm.
	Strategy = core.Strategy
	// RunConfig configures Run; Shares (HyperCube only, product ≤ P)
	// override the LP shares: []int{1, 1, P} is Join2's standard hash join.
	RunConfig = core.RunConfig
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

// Run plans q over db with cfg.Strategy and executes it once, uncached: the
// Result Session.Exec returns under WithStrategy and WithoutCache. Invalid
// input — P < 2, a strategy q cannot take, shares that do not fit — errors.
func Run(q *Query, db *Database, cfg RunConfig) (Result, error) {
	if err := checkNil(q, db); err != nil {
		return Result{}, err
	}
	return core.Run(q, db, cfg)
}

// DatabaseFingerprint returns the database's content hash. Sessions key
// plans on database identity and schema; drift detection compares this
// hash with the one a plan was built at. The hash is maintained
// incrementally by the relations (first call scans, Database.Apply updates
// per delta), so it costs O(relations) once warm. It holds the database's
// read lock, so it is safe to call concurrently with Apply.
func DatabaseFingerprint(db *Database) uint64 {
	db.RLock()
	defer db.RUnlock()
	return stats.Fingerprint(db)
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
