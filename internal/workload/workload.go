// Package workload generates the synthetic database instances used by the
// experiments: uniform random relations (the probability space of the
// paper's lower bounds), matchings (the restricted instances of [4]),
// Zipf-skewed and planted-heavy-hitter relations (the skew experiments of
// §4), single-value worst cases (Example 3.3's "all tuples share one z"),
// and instances with prescribed degree sequences (§4.3).
//
// All generators are deterministic given their seed and never produce
// duplicate tuples, so relation cardinalities are exact.
package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/data"
)

// Uniform returns a relation of exactly m distinct tuples drawn uniformly
// from [domain]^arity, the probability space used in Theorem 3.5. It panics
// if m exceeds half the space (rejection sampling would degrade).
func Uniform(name string, arity, m int, domain int64, seed int64) *data.Relation {
	space := pow64(domain, arity)
	if space > 0 && int64(m) > space/2 {
		panic(fmt.Sprintf("workload: m=%d too dense for domain^arity=%d", m, space))
	}
	r := data.NewRelation(name, arity, domain)
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, m)
	t := make(data.Tuple, arity)
	for r.Size() < m {
		for i := range t {
			t[i] = rng.Int63n(domain)
		}
		k := t.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		r.Add(t...)
	}
	return r
}

// Matching returns a relation of m tuples where every value occurs at most
// once in every column — the "matching" databases of [4] for which the
// HC load analysis is cleanest (Lemma 3.1 item 2). Requires domain ≥ m.
func Matching(name string, arity, m int, domain int64, seed int64) *data.Relation {
	if int64(m) > domain {
		panic("workload: Matching needs domain >= m")
	}
	r := data.NewRelation(name, arity, domain)
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, arity)
	for c := range cols {
		cols[c] = distinctValues(rng, m, domain)
	}
	t := make(data.Tuple, arity)
	for i := 0; i < m; i++ {
		for c := range cols {
			t[c] = cols[c][i]
		}
		r.Add(t...)
	}
	return r
}

// distinctValues draws m distinct values from [0, domain).
func distinctValues(rng *rand.Rand, m int, domain int64) []int64 {
	if int64(m)*2 > domain {
		// Dense: permute a prefix.
		perm := rng.Perm(int(domain))
		out := make([]int64, m)
		for i := 0; i < m; i++ {
			out[i] = int64(perm[i])
		}
		return out
	}
	seen := make(map[int64]bool, m)
	out := make([]int64, 0, m)
	for len(out) < m {
		v := rng.Int63n(domain)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// SingleValue returns a binary-style worst case: all m tuples share the
// fixed value at column col (Example 3.3's "all tuples have the same z");
// the remaining columns hold distinct values. Requires domain ≥ m and
// value < domain.
func SingleValue(name string, arity, m int, domain int64, col int, value int64, seed int64) *data.Relation {
	if int64(m) > domain || value < 0 || value >= domain {
		panic("workload: SingleValue needs domain >= m and value in [0, domain)")
	}
	r := data.NewRelation(name, arity, domain)
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int64, arity)
	for c := range cols {
		if c != col {
			cols[c] = distinctValues(rng, m, domain)
		}
	}
	cols[col] = make([]int64, m)
	for i := range cols[col] {
		cols[col][i] = value
	}
	r.AppendColumns(cols, m)
	return r
}

// Zipf returns a binary relation S(a, b) of m tuples where column col draws
// from a Zipf(s) distribution over [0, distinct) (heavier skew for larger
// s), and the other column holds distinct values so no tuple repeats.
// Requires s > 1, domain ≥ m and distinct ≤ domain.
func Zipf(name string, m int, domain int64, col int, s float64, distinct uint64, seed int64) *data.Relation {
	if !(s > 1) {
		panic("workload: Zipf needs s > 1")
	}
	if int64(m) > domain {
		panic("workload: Zipf needs domain >= m")
	}
	r := data.NewRelation(name, 2, domain)
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, distinct-1)
	other := distinctValues(rng, m, domain)
	for i := 0; i < m; i++ {
		v := int64(z.Uint64())
		if col == 0 {
			r.Add(v, other[i])
		} else {
			r.Add(other[i], v)
		}
	}
	return r
}

// SkewedGraph returns a binary edge relation over a vertex set [vertices]:
// source endpoints follow Zipf(s) (power-law out-degrees, "celebrity"
// nodes), destinations are uniform, self-loops and duplicate edges are
// rejected. Both endpoints share the vertex set, so triangles and longer
// cycles occur — the graph workloads of the triangle-counting motivation.
func SkewedGraph(name string, edges int, vertices int64, s float64, seed int64) *data.Relation {
	if vertices < 3 {
		panic("workload: SkewedGraph needs >= 3 vertices")
	}
	maxEdges := vertices * (vertices - 1)
	if int64(edges) > maxEdges/2 {
		panic("workload: SkewedGraph too dense")
	}
	r := data.NewRelation(name, 2, vertices)
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(vertices-1))
	seen := make(map[[2]int64]bool, edges)
	for r.Size() < edges {
		src := int64(z.Uint64())
		dst := rng.Int63n(vertices)
		if src == dst || seen[[2]int64{src, dst}] {
			continue
		}
		seen[[2]int64{src, dst}] = true
		r.Add(src, dst)
	}
	return r
}

// HeavySpec plants one heavy hitter: the value appears Count times at the
// designated column.
type HeavySpec struct {
	Value int64
	Count int
}

// PlantedHeavy returns a binary relation of exactly m tuples where column
// col carries the prescribed heavy hitters and the remaining tuples are
// light (each remaining col-value occurs exactly once). The other column
// always holds distinct values. Σ Count must be ≤ m, and heavy values must
// be < domain.
func PlantedHeavy(name string, m int, domain int64, col int, heavy []HeavySpec, seed int64) *data.Relation {
	total := 0
	for _, h := range heavy {
		total += h.Count
	}
	if total > m {
		panic("workload: planted heavy counts exceed m")
	}
	if int64(m) > domain {
		panic("workload: PlantedHeavy needs domain >= m")
	}
	r := data.NewRelation(name, 2, domain)
	rng := rand.New(rand.NewSource(seed))
	other := distinctValues(rng, m, domain)
	// Reserve light col-values distinct from the planted ones.
	reserved := make(map[int64]bool, len(heavy))
	for _, h := range heavy {
		reserved[h.Value] = true
	}
	lightVals := make([]int64, 0, m-total)
	seen := make(map[int64]bool)
	for len(lightVals) < m-total {
		v := rng.Int63n(domain)
		if reserved[v] || seen[v] {
			continue
		}
		seen[v] = true
		lightVals = append(lightVals, v)
	}
	i := 0
	add := func(colVal int64) {
		if col == 0 {
			r.Add(colVal, other[i])
		} else {
			r.Add(other[i], colVal)
		}
		i++
	}
	for _, h := range heavy {
		for c := 0; c < h.Count; c++ {
			add(h.Value)
		}
	}
	for _, v := range lightVals {
		add(v)
	}
	return r
}

// DegreeSequence returns a binary relation realizing the prescribed degree
// sequence on column col: value v appears degrees[v] times. This is the
// fixed-degree-sequence probability space of §4.3. The other column holds
// distinct values. Values with zero degree may be omitted from the map.
func DegreeSequence(name string, domain int64, col int, degrees map[int64]int, seed int64) *data.Relation {
	m := 0
	specs := make([]HeavySpec, 0, len(degrees))
	for v, d := range degrees {
		if d < 0 {
			panic("workload: negative degree")
		}
		m += d
		specs = append(specs, HeavySpec{Value: v, Count: d})
	}
	// Sort for determinism (map iteration order is random).
	slices.SortFunc(specs, func(a, b HeavySpec) int { return cmp.Compare(a.Value, b.Value) })
	if int64(m) > domain {
		panic("workload: DegreeSequence needs domain >= total degree")
	}
	return PlantedHeavy(name, m, domain, col, specs, seed)
}

// ForQuery returns a database with one Uniform relation per atom of q,
// using the given per-atom cardinalities — the random-instance space of
// the simple-statistics lower bound (Lemma A.1).
func ForQuery(atoms []AtomSpec, seed int64) *data.Database {
	db := data.NewDatabase()
	for i, a := range atoms {
		db.Put(Uniform(a.Name, a.Arity, a.M, a.Domain, seed+int64(i)*7919))
	}
	return db
}

// AtomSpec describes one relation to generate.
type AtomSpec struct {
	Name   string
	Arity  int
	M      int
	Domain int64
}

func pow64(base int64, exp int) int64 {
	result := int64(1)
	for i := 0; i < exp; i++ {
		if result > (1<<62)/base {
			return -1 // overflow sentinel: space is effectively unbounded
		}
		result *= base
	}
	return result
}
