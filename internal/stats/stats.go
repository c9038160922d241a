// Package stats computes the database statistics that the paper's
// algorithms assume known to all input servers: relation cardinalities
// (simple statistics, §3) and, for the skew-aware algorithms of §4, the
// identities and frequencies of heavy hitters over every attribute subset
// of every relation, organized into the O(log p) factor-of-two frequency
// bins of §4.2.
//
// Exact frequencies are counted on the group-by kernel (data.GroupIndex):
// a Freq is one relation grouped by one attribute list, a Pass memoizes the
// Freqs of one plan on the join scratch pool until it is released, and only
// the O(p) heavy entries are ever copied out, into a FreqMap's KeyTable. A
// plan keeps a Dictionary: the kernel over its heavy keys alone.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/par"
)

// AttrKey canonically encodes an attribute-position subset, e.g. [0,2] →
// "0,2". Positions must be sorted ascending by the caller for canonical
// keys; Frequencies sorts defensively.
func AttrKey(attrs []int) string {
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = fmt.Sprintf("%d", a)
	}
	return strings.Join(parts, ",")
}

// Freq is the exact frequency table of one relation over one attribute
// list: the relation grouped by those attributes, counted. Count probes the
// grouping and Each walks it; nothing else is stored per distinct value. It
// reads the relation's columns in place and is valid only until the
// relation is next mutated, or, for a Freq a Pass built, until the pass is
// released: then Count, Each and Projection panic.
type Freq struct {
	Attrs []int          // attribute positions, in the order keys are given and reported
	Total int64          // Σ counts = m_j
	sc    *join.Scratch  // holds the grouping (Index); nil once released
	cols  [][]int64      // the key columns, in Attrs order
	keys  *data.Relation // the distinct keys, in sc; built by Pass.Projection
}

// Frequencies computes the exact frequency table of r over the given
// attribute positions, sorted ascending (the canonical Attrs).
func Frequencies(r *data.Relation, attrs []int) *Freq {
	sorted := append([]int(nil), attrs...)
	sort.Ints(sorted)
	return FrequenciesOrdered(r, sorted)
}

// FrequenciesOrdered is Frequencies without the canonical attribute
// sorting: keys project attrs in exactly the caller's order, as the
// multi-round planner needs to probe with keys in join-variable order.
func FrequenciesOrdered(r *data.Relation, attrs []int) *Freq {
	return newFreq(r, attrs, new(join.Scratch))
}

// newFreq groups r by attrs into sc's index.
func newFreq(r *data.Relation, attrs []int, sc *join.Scratch) *Freq {
	f := &Freq{Attrs: append([]int(nil), attrs...), Total: int64(r.Size()), sc: sc}
	for _, a := range attrs {
		f.cols = append(f.cols, r.Column(a))
	}
	sc.Index.Build(r, attrs)
	return f
}

// Count returns the frequency of key, one value per attribute in Attrs
// order (0 if absent).
func (f *Freq) Count(key []int64) int64 {
	idx := &f.sc.Index
	return int64(idx.Count(idx.Lookup(key)))
}

// Distinct returns the number of distinct keys.
func (f *Freq) Distinct() int { return f.sc.Index.Groups() }

// Each calls fn with every distinct key and its frequency, in order of each
// key's first row. key is scratch reused across calls.
func (f *Freq) Each(fn func(key []int64, count int64)) {
	idx := &f.sc.Index
	key := make([]int64, len(f.cols))
	for g, n := 0, idx.Groups(); g < n; g++ {
		rep := idx.Rep(g)
		for i, col := range f.cols {
			key[i] = col[rep]
		}
		fn(key, int64(idx.Count(g)))
	}
}

// Heavy materializes the entries with frequency strictly greater than
// threshold. With threshold = m/p there are fewer than p of them.
func (f *Freq) Heavy(threshold int64) *FreqMap {
	h := newFreqMap(f.Attrs, f.Total)
	f.Each(func(key []int64, c int64) {
		if c > threshold {
			h.add(key, c)
		}
	})
	return h
}

// FreqMap records the frequencies of some value combinations of one
// relation over one attribute subset: the heavy entries of an exact table
// (Freq.Heavy, RelationStats.ByAttrs). The combinations get dense codes in a KeyTable and
// their counts sit in a column beside it. It is read-only once built.
type FreqMap struct {
	Attrs  []int // sorted attribute positions within the relation
	Total  int64 // m_j, the size of the relation counted
	keys   data.KeyTable
	counts []int64 // counts[e] is the frequency of keys.Key(e)
}

func newFreqMap(attrs []int, total int64) *FreqMap {
	f := &FreqMap{Attrs: attrs, Total: total}
	f.keys.Reset(len(attrs))
	return f
}

// add adds c to the frequency of key.
func (f *FreqMap) add(key []int64, c int64) {
	e, added := f.keys.Insert(key)
	if added {
		f.counts = append(f.counts, 0)
	}
	f.counts[e] += c
}

// Count returns the recorded frequency of the projected values (0 if
// absent).
func (f *FreqMap) Count(projected data.Tuple) int64 {
	if e := f.keys.Lookup(projected); e >= 0 {
		return f.counts[e]
	}
	return 0
}

// Each calls fn with every recorded key and its frequency, in the order
// they were recorded. key is a read-only view of the map.
func (f *FreqMap) Each(fn func(key []int64, count int64)) {
	for e, c := range f.counts {
		fn(f.keys.Key(e), c)
	}
}

// HeavyHitter is one skewed value combination with its frequency.
type HeavyHitter struct {
	Key   []int64 // a read-only view of the FreqMap's key
	Count int64
}

// HeavyHitters returns the value combinations with frequency strictly
// greater than threshold, sorted by descending count then key.
func (f *FreqMap) HeavyHitters(threshold int64) []HeavyHitter {
	var out []HeavyHitter
	f.Each(func(key []int64, c int64) {
		if c > threshold {
			out = append(out, HeavyHitter{Key: key, Count: c})
		}
	})
	slices.SortFunc(out, func(a, b HeavyHitter) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return slices.Compare(a.Key, b.Key)
	})
	return out
}

// NumBins returns the number of heavy-hitter bins for p servers:
// ⌈log₂ p⌉ heavy bins plus one light bin (§4.2).
func NumBins(p int) int {
	if p < 2 {
		return 2
	}
	return int(math.Ceil(math.Log2(float64(p)))) + 1
}

// BinOf assigns a frequency to its bin index b ∈ [1, NumBins(p)]: bin b
// holds frequencies with m/2^{b-1} ≥ freq > m/2^b, and the last bin holds
// the light hitters (freq ≤ m/p).
func BinOf(freq, m int64, p int) int {
	if freq <= 0 {
		panic("stats: BinOf on nonpositive frequency")
	}
	last := NumBins(p)
	if freq*int64(p) <= m { // light: freq <= m/p
		return last
	}
	for b := 1; b < last; b++ {
		// freq > m / 2^b ?
		if float64(freq) > float64(m)/math.Exp2(float64(b)) {
			return b
		}
	}
	return last - 1
}

// BinExponent returns β_b = log_p(2^{b-1}) for a heavy bin, and 1 for the
// light bin (§4.2: β_1 = 0 < β_2 < … < β_{log p + 1} = 1).
func BinExponent(b, p int) float64 {
	if p < 2 {
		return 0
	}
	if b >= NumBins(p) {
		return 1
	}
	return float64(b-1) * math.Log(2) / math.Log(float64(p))
}

// RelationStats bundles the statistics of one relation: its cardinality and
// the heavy-hitter frequency maps over every non-empty attribute subset.
type RelationStats struct {
	Name      string
	Arity     int
	M         int64 // tuple count
	Bits      int64 // M_j in bits
	Domain    int64
	Threshold int64               // m/p, at least one tuple
	ByAttrs   map[string]*FreqMap // AttrKey → frequencies (heavy entries only)
	p         int
}

// Heavy returns the heavy hitters over the given attribute subset.
func (rs *RelationStats) Heavy(attrs []int) []HeavyHitter {
	if f := rs.FreqMapFor(attrs); f != nil {
		return f.HeavyHitters(rs.Threshold)
	}
	return nil
}

// Freq returns the recorded frequency of the projected values over attrs,
// or 0 if the combination is light (not recorded).
func (rs *RelationStats) Freq(attrs []int, projected data.Tuple) int64 {
	if f := rs.FreqMapFor(attrs); f != nil {
		return f.Count(projected)
	}
	return 0
}

// FreqMapFor returns the frequency map over the given attribute subset, or
// nil if none is recorded.
func (rs *RelationStats) FreqMapFor(attrs []int) *FreqMap {
	sorted := append([]int(nil), attrs...)
	sort.Ints(sorted)
	return rs.ByAttrs[AttrKey(sorted)]
}

// Pass is the statistics pass of one plan: it memoizes every Freq asked
// for, so that strategy selection, the lower bounds, the planners and the
// heavy watch group each (relation, attribute list) once between them. It
// indexes whole base relations on the join scratch pool: Release it when
// planning returns, and let nothing a plan keeps point into it (DESIGN.md
// audits what reads it). The zero value is ready to use. Its
// methods build, so they are for one goroutine at a time (CollectDB's
// fan-out gives each worker relations of its own); the Freqs and
// projections it has handed out are read-only, and any number of
// goroutines may read them at once, as BestLowerWith's join workers do.
type Pass struct {
	rels []*relPass
}

// relPass is the part of a Pass that concerns one relation.
type relPass struct {
	rel   *data.Relation
	freqs []*Freq
	stats []*RelationStats // one per server count collected at
}

func (ps *Pass) of(r *data.Relation) *relPass {
	for _, rp := range ps.rels {
		if rp.rel == r {
			return rp
		}
	}
	rp := &relPass{rel: r}
	ps.rels = append(ps.rels, rp)
	return rp
}

// Frequencies returns the frequency table of r over attrs, in exactly the
// caller's attribute order, building it on first request.
func (ps *Pass) Frequencies(r *data.Relation, attrs []int) *Freq {
	return ps.of(r).frequencies(attrs)
}

func (rp *relPass) frequencies(attrs []int) *Freq {
	for _, f := range rp.freqs {
		if slices.Equal(f.Attrs, attrs) {
			return f
		}
	}
	f := newFreq(rp.rel, attrs, join.GetScratch())
	rp.freqs = append(rp.freqs, f)
	return f
}

// Release hands every grouping and projection the pass built back to the
// join scratch pool. A released Freq's Count, Each and Projection panic
// rather than read a recycled table. Release is idempotent.
func (ps *Pass) Release() {
	for _, rp := range ps.rels {
		for _, f := range rp.freqs {
			if f.sc != nil {
				join.PutScratch(f.sc)
				f.sc, f.keys = nil, nil
			}
		}
	}
}

// Projection returns the distinct keys of r over attrs as a relation of
// their own: one row per key, in first-occurrence order, columns in attrs
// order. It is read off the Freq's representative rows and built once per
// pass, into the Freq's scratch, so it too is valid until Release.
func (ps *Pass) Projection(r *data.Relation, attrs []int) *data.Relation {
	f := ps.Frequencies(r, attrs)
	if f.keys == nil {
		n := f.Distinct()
		vals := f.sc.Values(n * len(f.cols))
		cols := make([][]int64, len(f.cols))
		for i, col := range f.cols {
			cols[i] = vals[i*n : (i+1)*n]
			for g := range cols[i] {
				cols[i][g] = col[f.sc.Index.Rep(g)]
			}
		}
		f.keys = data.NewRelation(r.Name, len(attrs), r.Domain)
		f.keys.AdoptColumns(cols, n)
	}
	return f.keys
}

// Groupings returns the number of groupings the pass has built.
func (ps *Pass) Groupings() int {
	n := 0
	for _, rp := range ps.rels {
		n += len(rp.freqs)
	}
	return n
}

// Collect computes RelationStats for r with heavy-hitter threshold m/p,
// once per (relation, p). It keeps only heavy entries in ByAttrs (O(p) per
// subset), matching the paper's statistics-size accounting.
func (ps *Pass) Collect(r *data.Relation, p int) *RelationStats {
	return ps.of(r).collect(p)
}

func (rp *relPass) collect(p int) *RelationStats {
	for _, rs := range rp.stats {
		if rs.p == p {
			return rs
		}
	}
	r := rp.rel
	m := int64(r.Size())
	rs := &RelationStats{
		Name:   r.Name,
		Arity:  r.Arity,
		M:      m,
		Bits:   r.Bits(),
		Domain: r.Domain,
		// With m < p the quotient floors to 0 and would make every value
		// heavy; a value that occurs once never is.
		Threshold: max(1, m/int64(p)),
		ByAttrs:   make(map[string]*FreqMap),
		p:         p,
	}
	for _, attrs := range nonEmptySubsets(r.Arity) {
		rs.ByAttrs[AttrKey(attrs)] = rp.frequencies(attrs).Heavy(rs.Threshold)
	}
	rp.stats = append(rp.stats, rs)
	return rs
}

// Dictionary indexes heavy keys of the given width, laid end to end in
// keys: Lookup on the result turns a key into a dense code — distinct keys
// are coded 0, 1, … in the order given, and a repeated key's Rows list every
// occurrence. It returns nil for no keys, so a router skips the probe
// outright where nothing is heavy. A dictionary covers plan-sized data
// only, and lives as long as the plan.
func Dictionary(width int, keys []int64) *data.GroupIndex {
	if len(keys) == 0 {
		return nil
	}
	n := len(keys) / width
	cols, attrs := make([][]int64, width), make([]int, width)
	for i := range cols {
		attrs[i] = i
		cols[i] = make([]int64, n)
		for k := range cols[i] {
			cols[i][k] = keys[k*width+i]
		}
	}
	rel := data.NewRelation("heavy", width, 1)
	rel.AdoptColumns(cols, n)
	idx := new(data.GroupIndex)
	idx.Build(rel, attrs)
	return idx
}

// nonEmptySubsets enumerates all non-empty subsets of {0..arity-1}.
func nonEmptySubsets(arity int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<arity; mask++ {
		var s []int
		for i := 0; i < arity; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, i)
			}
		}
		out = append(out, s)
	}
	return out
}

// fnvOffset and fnvPrime are the 64-bit FNV-1a parameters used by
// Fingerprint's value chaining.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Fingerprint returns a cheap content hash of db. Two databases with the
// same relations (names, shapes, and tuple multisets — insertion order is
// ignored) fingerprint identically, so any plan built for one is valid for
// the other. The engine's plan cache keys on this together with the query's
// canonical form and p.
//
// The per-relation content term is a commutative (and therefore reversible)
// fold of avalanched per-tuple hashes, maintained incrementally by the
// relation itself (data.Relation.ContentSum): the first fingerprint of a
// relation scans it once, and every fingerprint after that — including
// after Database.Apply deltas — costs O(relations), not O(tuples). The
// tests hold it to a serial rescan after arbitrary delta sequences.
func Fingerprint(db *data.Database) uint64 {
	h := fnvOffset
	for _, name := range db.Names() {
		r := db.Relations[name]
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * fnvPrime
		}
		h = (h ^ uint64(r.Arity)) * fnvPrime
		h = (h ^ uint64(r.Domain)) * fnvPrime
		h = (h ^ uint64(r.Size())) * fnvPrime
		h = (h ^ r.ContentSum()) * fnvPrime
	}
	return h
}

// SchemaFingerprint hashes only the database's shape — relation names,
// arities, and domains — ignoring content. The engine's plan cache keys on
// it (with the database identity): a cached physical plan routes by column
// positions, so it stays *correct* across content deltas but becomes
// invalid if a relation's schema changes under it.
func SchemaFingerprint(db *data.Database) uint64 {
	h := fnvOffset
	for _, name := range db.Names() {
		r := db.Relations[name]
		for i := 0; i < len(name); i++ {
			h = (h ^ uint64(name[i])) * fnvPrime
		}
		h = (h ^ uint64(r.Arity)) * fnvPrime
		h = (h ^ uint64(r.Domain)) * fnvPrime
	}
	return h
}

// DBStats is the full complex-statistics bundle of §4: per-relation
// cardinalities plus heavy hitters, at a common server count p.
type DBStats struct {
	P         int
	Relations map[string]*RelationStats
}

// CollectDB computes statistics for every relation in db. Relations are
// collected on par.Each's workers, mirroring the paper's setting where
// every input server computes its partition's statistics at once; each
// relation's part of the pass is written by the one worker that claims it.
func (ps *Pass) CollectDB(db *data.Database, p int) *DBStats {
	names := db.Names()
	var parts []*relPass // distinct, even if two names share a relation
	for _, name := range names {
		if rp := ps.of(db.Relations[name]); !slices.Contains(parts, rp) {
			parts = append(parts, rp)
		}
	}
	par.Each(len(parts), func(i int) { parts[i].collect(p) })
	s := &DBStats{P: p, Relations: make(map[string]*RelationStats, len(names))}
	for _, name := range names {
		s.Relations[name] = ps.Collect(db.Relations[name], p)
	}
	return s
}

// CollectDB is Pass.CollectDB on a pass of its own.
func CollectDB(db *data.Database, p int) *DBStats {
	ps := new(Pass)
	defer ps.Release()
	return ps.CollectDB(db, p)
}
