package stats

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/workload"
)

func makeSkewed(t *testing.T) *data.Relation {
	t.Helper()
	// 100 tuples: value 7 appears 40 times in column 1, rest distinct.
	r := data.NewRelation("S", 2, 1000)
	for i := int64(0); i < 40; i++ {
		r.Add(i, 7)
	}
	for i := int64(0); i < 60; i++ {
		r.Add(100+i, 100+i)
	}
	return r
}

func TestFrequenciesExact(t *testing.T) {
	r := makeSkewed(t)
	f := Frequencies(r, []int{1})
	if f.Total != 100 {
		t.Errorf("Total = %d", f.Total)
	}
	if f.Count(data.Tuple{7}) != 40 {
		t.Errorf("count(7) = %d, want 40", f.Count(data.Tuple{7}))
	}
	if f.Count(data.Tuple{100}) != 1 {
		t.Errorf("count(100) = %d, want 1", f.Count(data.Tuple{100}))
	}
	if f.Count(data.Tuple{9999}) != 0 {
		t.Error("absent value should count 0")
	}
}

func TestFrequenciesMultiAttr(t *testing.T) {
	r := data.NewRelation("S", 3, 100)
	r.Add(1, 2, 3)
	r.Add(1, 2, 4)
	r.Add(1, 5, 3)
	f := Frequencies(r, []int{0, 1})
	if f.Count(data.Tuple{1, 2}) != 2 || f.Count(data.Tuple{1, 5}) != 1 {
		t.Errorf("multi-attr counts wrong: %v", f.Heavy(0).HeavyHitters(0))
	}
}

// TestPassProjection: the distinct keys in first-occurrence order, columns
// in the caller's attribute order, built once beside their Freq.
func TestPassProjection(t *testing.T) {
	r := data.NewRelation("S", 3, 100)
	for _, row := range [][]int64{{1, 2, 3}, {4, 5, 3}, {1, 6, 3}, {4, 7, 9}, {1, 8, 3}} {
		r.Add(row...)
	}
	ps := new(Pass)
	prj := ps.Projection(r, []int{2, 0})
	want := [][]int64{{3, 1}, {3, 4}, {9, 4}}
	if prj.Size() != len(want) || prj.Arity != 2 || prj.Domain != r.Domain {
		t.Fatalf("projection has %d rows of arity %d over %d, want %d of 2 over %d", prj.Size(), prj.Arity, prj.Domain, len(want), r.Domain)
	}
	for i, w := range want {
		if got := prj.Tuple(i); !slices.Equal(got, w) {
			t.Errorf("row %d = %v, want %v", i, got, w)
		}
	}
	if again := ps.Projection(r, []int{2, 0}); again != prj {
		t.Error("a second request built the projection again")
	}
	if ps.Frequencies(r, []int{2, 0}).Distinct() != len(want) || ps.Groupings() != 1 {
		t.Errorf("the pass holds %d groupings, want the projection's one", ps.Groupings())
	}
}

func TestFrequenciesSortsAttrs(t *testing.T) {
	r := data.NewRelation("S", 2, 100)
	r.Add(1, 2)
	f := Frequencies(r, []int{1, 0})
	if f.Attrs[0] != 0 || f.Attrs[1] != 1 {
		t.Errorf("Attrs = %v, want sorted", f.Attrs)
	}
}

func TestHeavyHitters(t *testing.T) {
	r := makeSkewed(t)
	f := Frequencies(r, []int{1})
	// threshold m/p with p=10: 100/10 = 10; only value 7 (40) is heavy.
	hh := f.Heavy(10).HeavyHitters(10)
	if len(hh) != 1 || !slices.Equal(hh[0].Key, []int64{7}) || hh[0].Count != 40 {
		t.Errorf("HeavyHitters = %v", hh)
	}
	// threshold 0: every distinct value is heavy; sorted by count desc.
	all := f.Heavy(0).HeavyHitters(0)
	if len(all) != 61 {
		t.Errorf("len = %d, want 61", len(all))
	}
	if all[0].Count != 40 {
		t.Error("not sorted by count")
	}
}

// TestHeavyHittersOrder pins HeavyHitters' order, count descending with ties
// broken lexicographically by key, against a plain reference sort at key
// widths 1, 2 and 9.
func TestHeavyHittersOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, width := range []int{1, 2, 9} {
		r := data.NewRelation("W", width, 4)
		attrs := make([]int, width)
		vals := make([]int64, width)
		for a := range attrs {
			attrs[a] = a
		}
		for i := 0; i < 600; i++ {
			for a := range vals {
				vals[a] = int64(rng.Intn(2) * rng.Intn(4)) // mostly 0, so keys repeat and counts tie
			}
			r.Add(vals...)
		}
		type entry struct {
			key   data.Tuple
			count int64
		}
		byKey := make(map[string]*entry)
		r.Each(func(_ int, tu data.Tuple) bool {
			if e := byKey[tu.Key()]; e != nil {
				e.count++
			} else {
				byKey[tu.Key()] = &entry{key: slices.Clone(tu), count: 1}
			}
			return true
		})
		for _, threshold := range []int64{0, 1, 3} {
			var want []entry
			for _, e := range byKey {
				if e.count > threshold {
					want = append(want, *e)
				}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].count != want[j].count {
					return want[i].count > want[j].count
				}
				for a := range want[i].key {
					if want[i].key[a] != want[j].key[a] {
						return want[i].key[a] < want[j].key[a]
					}
				}
				return false
			})
			got := Frequencies(r, attrs).Heavy(0).HeavyHitters(threshold)
			if len(got) != len(want) {
				t.Fatalf("width %d threshold %d: %d hitters, reference %d", width, threshold, len(got), len(want))
			}
			for i, w := range want {
				if !slices.Equal(got[i].Key, w.key) || got[i].Count != w.count {
					t.Fatalf("width %d threshold %d: hitter %d is %v×%d, reference %v×%d",
						width, threshold, i, got[i].Key, got[i].Count, w.key, w.count)
				}
			}
		}
	}
}

func TestNumBins(t *testing.T) {
	cases := []struct{ p, want int }{
		{1, 2}, {2, 2}, {4, 3}, {8, 4}, {1024, 11}, {1000, 11},
	}
	for _, c := range cases {
		if got := NumBins(c.p); got != c.want {
			t.Errorf("NumBins(%d) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestBinOf(t *testing.T) {
	const m, p = 1024, 16 // bins 1..4 heavy, 5 light
	cases := []struct {
		freq int64
		want int
	}{
		{1024, 1}, // m itself: m/2^0 >= f > m/2^1
		{513, 1},  // just above m/2
		{512, 2},  // m/2: in bin 2 (m/2 >= f > m/4)
		{257, 2},
		{256, 3},
		{128, 4},
		{65, 4}, // just above m/p = 64
		{64, 5}, // exactly m/p: light
		{1, 5},
	}
	for _, c := range cases {
		if got := BinOf(c.freq, m, p); got != c.want {
			t.Errorf("BinOf(%d) = %d, want %d", c.freq, got, c.want)
		}
	}
}

func TestBinOfPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BinOf(0, 10, 2)
}

func TestBinExponent(t *testing.T) {
	const p = 16
	if got := BinExponent(1, p); got != 0 {
		t.Errorf("β_1 = %v, want 0", got)
	}
	// β_b = log_p 2^{b-1}: for p=16, β_2 = 1/4.
	if got := BinExponent(2, p); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("β_2 = %v, want 0.25", got)
	}
	if got := BinExponent(NumBins(p), p); got != 1 {
		t.Errorf("light bin β = %v, want 1", got)
	}
	// Monotone increasing.
	prev := -1.0
	for b := 1; b <= NumBins(p); b++ {
		e := BinExponent(b, p)
		if e < prev {
			t.Errorf("bin exponents not monotone at b=%d", b)
		}
		prev = e
	}
}

func TestBinInvariantFrequencyWithinFactor2(t *testing.T) {
	// All heavy hitters in the same bin have frequencies within 2× of each
	// other (the property the algorithm relies on).
	const m, p = 1 << 20, 64
	for f := int64(m/p + 1); f <= m; f = f*3/2 + 1 {
		b := BinOf(f, m, p)
		if b == NumBins(p) {
			continue
		}
		lo := float64(m) / math.Exp2(float64(b))
		hi := float64(m) / math.Exp2(float64(b-1))
		if !(float64(f) > lo && float64(f) <= hi+1e-9) {
			t.Errorf("freq %d in bin %d outside (m/2^b, m/2^{b-1}] = (%v,%v]", f, b, lo, hi)
		}
	}
}

func TestCollect(t *testing.T) {
	r := makeSkewed(t)
	rs := new(Pass).Collect(r, 10)
	if rs.M != 100 || rs.Threshold != 10 {
		t.Errorf("stats: %+v", rs)
	}
	if got := new(Pass).Collect(data.NewRelation("E", 2, 10), 10).Threshold; got != 1 {
		t.Errorf("empty relation: Threshold = %d, want the one-tuple floor", got)
	}
	// Attribute subsets of arity 2: {0}, {1}, {0,1}.
	if len(rs.ByAttrs) != 3 {
		t.Errorf("ByAttrs has %d subsets, want 3", len(rs.ByAttrs))
	}
	hh := rs.Heavy([]int{1})
	if len(hh) != 1 || hh[0].Count != 40 {
		t.Errorf("Heavy = %v", hh)
	}
	if rs.Freq([]int{1}, data.Tuple{7}) != 40 {
		t.Error("Freq wrong for heavy value")
	}
	if rs.Freq([]int{1}, data.Tuple{100}) != 0 {
		t.Error("light values should be pruned from stats")
	}
	if rs.Freq([]int{9}, data.Tuple{0}) != 0 {
		t.Error("unknown attr subset should report 0")
	}
}

func TestCollectPrunesLight(t *testing.T) {
	r := makeSkewed(t)
	rs := new(Pass).Collect(r, 10)
	f := rs.ByAttrs[AttrKey([]int{1})]
	if len(f.counts) != 1 {
		t.Errorf("pruned map holds %d entries, want 1 (only heavy)", len(f.counts))
	}
}

func TestHeavyCountBound(t *testing.T) {
	// With threshold m/p there are < p heavy hitters (the paper's O(p)).
	r := data.NewRelation("S", 1, 1<<20)
	for i := int64(0); i < 10000; i++ {
		r.Add(i % 100) // 100 values, each freq 100
	}
	for _, p := range []int{2, 4, 16, 64} {
		rs := new(Pass).Collect(r, p)
		hh := rs.Heavy([]int{0})
		if int64(len(hh)) >= int64(p)+1 {
			t.Errorf("p=%d: %d heavy hitters, want < p+1", p, len(hh))
		}
	}
}

func TestCollectDB(t *testing.T) {
	db := data.NewDatabase()
	r := makeSkewed(t)
	db.Put(r)
	r2 := data.NewRelation("T", 1, 10)
	r2.Add(1)
	db.Put(r2)
	s := CollectDB(db, 10)
	if len(s.Relations) != 2 || s.P != 10 {
		t.Errorf("CollectDB: %+v", s)
	}
	if s.Relations["S"].M != 100 || s.Relations["T"].M != 1 {
		t.Errorf("cardinalities = %d, %d", s.Relations["S"].M, s.Relations["T"].M)
	}
}

func TestAttrKey(t *testing.T) {
	if AttrKey([]int{0, 2}) != "0,2" || AttrKey(nil) != "" {
		t.Error("AttrKey wrong")
	}
}

// refFreq is a reference frequency table: one map entry per distinct
// projection, keyed by its Tuple.Key rendering.
type refFreq struct {
	Attrs  []int
	Total  int64
	Counts map[string]int64
}

// refFrequenciesOrdered is the map-based FrequenciesOrdered this package
// had before frequencies moved onto the group-by kernel, less its
// chunked-scan and maintained-counts branches (both reached the same map),
// kept as the reference the kernel is checked against.
func refFrequenciesOrdered(r *data.Relation, attrs []int) *refFreq {
	f := &refFreq{Attrs: append([]int(nil), attrs...), Counts: make(map[string]int64)}
	m := r.Size()
	f.Total = int64(m)
	proj := make(data.Tuple, len(attrs))
	for row := 0; row < m; row++ {
		for i, a := range attrs {
			proj[i] = r.At(row, a)
		}
		f.Counts[proj.Key()]++
	}
	return f
}

// refStats is RelationStats with reference tables in ByAttrs.
type refStats struct {
	RelationStats
	ByAttrs map[string]*refFreq
}

// refCollect is the Collect of the same commit, verbatim except for the
// one-tuple floor on Threshold that a later bug fix added.
func refCollect(r *data.Relation, p int) *refStats {
	m := int64(r.Size())
	rs := &refStats{
		RelationStats: RelationStats{
			Name:      r.Name,
			Arity:     r.Arity,
			M:         m,
			Bits:      r.Bits(),
			Domain:    r.Domain,
			Threshold: max(1, m/int64(p)),
		},
		ByAttrs: make(map[string]*refFreq),
	}
	for _, attrs := range nonEmptySubsets(r.Arity) {
		full := refFrequenciesOrdered(r, attrs)
		pruned := &refFreq{Attrs: full.Attrs, Counts: make(map[string]int64), Total: full.Total}
		for k, c := range full.Counts {
			if c > rs.Threshold {
				pruned.Counts[k] = c
			}
		}
		rs.ByAttrs[AttrKey(attrs)] = pruned
	}
	return rs
}

// matchesRef reports whether f records exactly ref's keys and counts over
// the same Total.
func matchesRef(f *FreqMap, ref *refFreq) bool {
	same := f.Total == ref.Total && len(f.counts) == len(ref.Counts)
	f.Each(func(key []int64, c int64) { same = same && ref.Counts[data.Tuple(key).Key()] == c })
	return same
}

// checkAgainstReference asserts that Collect reports exactly the reference's
// heavy sets, counts, Total and Threshold for r at p, and that the exact
// table over attrs (in that order) holds the reference's every count.
func checkAgainstReference(t *testing.T, name string, r *data.Relation, p int, attrs []int) {
	t.Helper()
	got, want := new(Pass).Collect(r, p), refCollect(r, p)
	if got.Name != want.Name || got.Arity != want.Arity || got.M != want.M || got.Bits != want.Bits ||
		got.Domain != want.Domain || got.Threshold != want.Threshold {
		t.Fatalf("%s p=%d: stats %+v, reference %+v", name, p, got, want)
	}
	if len(got.ByAttrs) != len(want.ByAttrs) {
		t.Fatalf("%s p=%d: %d attribute subsets, reference %d", name, p, len(got.ByAttrs), len(want.ByAttrs))
	}
	for key, wf := range want.ByAttrs {
		gf := got.ByAttrs[key]
		if gf == nil || !slices.Equal(gf.Attrs, wf.Attrs) || !matchesRef(gf, wf) {
			t.Fatalf("%s p=%d attrs %s: heavy hitters %+v, reference %+v", name, p, key, gf, wf)
		}
	}

	f, ref := FrequenciesOrdered(r, attrs), refFrequenciesOrdered(r, attrs)
	if f.Total != ref.Total || !slices.Equal(f.Attrs, ref.Attrs) || f.Distinct() != len(ref.Counts) {
		t.Fatalf("%s attrs %v: table Total %d Attrs %v with %d keys, reference %d %v %d",
			name, attrs, f.Total, f.Attrs, f.Distinct(), ref.Total, ref.Attrs, len(ref.Counts))
	}
	seen := 0
	f.Each(func(key []int64, c int64) {
		seen++
		if want := ref.Counts[data.Tuple(key).Key()]; c != want || f.Count(key) != want {
			t.Fatalf("%s attrs %v key %v: Each %d, Count %d, reference %d", name, attrs, key, c, f.Count(key), want)
		}
	})
	if seen != len(ref.Counts) {
		t.Fatalf("%s attrs %v: Each visited %d keys, reference has %d", name, attrs, seen, len(ref.Counts))
	}
}

func TestCollectMatchesReference(t *testing.T) {
	wide := data.NewRelation("W9", 9, 4) // 9-attribute keys
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 9)
	for i := 0; i < 40; i++ {
		for a := range vals {
			vals[a] = int64(rng.Intn(2))
		}
		vals[8] = int64(rng.Intn(4))
		wide.Add(vals...)
	}
	one := data.NewRelation("R1", 1, 64) // arity 1, with repeats
	for i := 0; i < 300; i++ {
		one.Add(int64(rng.Intn(20) * rng.Intn(3)))
	}
	cases := []struct {
		r     *data.Relation
		attrs []int // one ordered attribute list for the exact-table check
	}{
		{one, []int{0}},
		{workload.Uniform("U2", 2, 800, 40, 2), []int{1, 0}},
		{workload.Uniform("U3", 3, 900, 16, 3), []int{2, 0, 1}},
		{workload.Matching("M", 2, 500, 1<<13, 4), []int{0, 1}},
		{workload.Zipf("Z", 2000, 1<<20, 1, 1.4, 300, 5), []int{1}},
		{workload.SkewedGraph("G", 5000, 2000, 1.2, 6), []int{1, 0}},
		{workload.DegreeSequence("D", 1<<20, 1, map[int64]int{3: 70, 8: 20, 15: 1, 16: 9}, 7), []int{1}},
		{data.NewRelation("E", 2, 10), []int{0, 1}},
		{wide, []int{8, 7, 6, 5, 4, 3, 2, 1, 0}},
		{workload.Matching("Tiny", 2, 10, 1<<10, 8), []int{1}}, // m < p below
	}
	for _, c := range cases {
		for _, p := range []int{2, 16, 64} {
			checkAgainstReference(t, c.r.Name, c.r, p, c.attrs)
		}
	}

	// Snapshot views count like their masters, and a master that has served
	// deltas counts like a relation built with its rows.
	db := data.NewDatabase()
	z := workload.Zipf("Z", 1500, 1<<20, 1, 1.3, 200, 9)
	db.Put(z)
	checkAgainstReference(t, "snapshot", db.Snapshot().MustGet("Z"), 16, []int{1, 0})
	next := int64(1 << 19)
	for round := 0; round < 5; round++ {
		d := new(data.Delta)
		for i := 0; i < 40; i++ {
			next++
			d.Insert("Z", next, int64(rng.Intn(3))) // grows three hitters
		}
		d.Delete("Z", z.Tuple(rng.Intn(z.Size()))...)
		if err := db.Apply(d); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, "after Apply", z, 16, []int{1})
		checkAgainstReference(t, "snapshot after Apply", db.Snapshot().MustGet("Z"), 16, []int{0, 1})
	}
}

// FuzzCollectMatchesReference decodes fuzz bytes into a relation (arity
// 1..3, values from a small domain so projections repeat), a server count
// and an attribute order, and checks Collect and the exact table against
// the map-based reference.
func FuzzCollectMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 3, 4, 1, 2}, uint8(2), uint8(3), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(0), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(3), uint8(200), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, arityByte, pByte, orderByte uint8) {
		arity := 1 + int(arityByte%3)
		r := data.NewRelation("F", arity, 256)
		vals := make([]int64, arity)
		for i := 0; i+arity <= len(raw); i += arity {
			for a := range vals {
				vals[a] = int64(raw[i+a] % 8)
			}
			r.Add(vals...)
		}
		// orderByte picks a rotation of the attributes and how many to keep.
		attrs := make([]int, 1+int(orderByte>>4)%arity)
		for i := range attrs {
			attrs[i] = (int(orderByte) + i) % arity
		}
		checkAgainstReference(t, "fuzz", r, 2+int(pByte), attrs)
	})
}

func TestHeavyWatchIgnoresSingletonsBelowP(t *testing.T) {
	// m < p: the threshold m/p floors to 0, and without the one-tuple floor
	// every inserted value would be reported as a new heavy hitter.
	db := data.NewDatabase()
	db.Put(workload.Matching("S", 2, 10, 1<<10, 1))
	w := NewHeavyWatch(new(Pass), db, []string{"S"}, 16)
	if w.Note("S", []int64{1000, 1001}, true) {
		t.Error("a value seen once was reported heavy")
	}
	if !w.Note("S", []int64{1002, 1001}, true) {
		t.Error("a value seen twice at threshold 1 was not reported heavy")
	}
}

// FuzzHeavyWatchMatchesRecount feeds an insert/delete stream over a small
// domain through Database.Apply and a HeavyWatch built on the first
// snapshot. After every applied operation, Note's verdict must equal a
// recount of the replayed relation: some value of an inserted tuple now
// occurs more often than the frozen threshold and was not heavy at
// construction. Deletes never report.
func FuzzHeavyWatchMatchesRecount(f *testing.F) {
	f.Add([]byte{4, 1, 1, 2, 1, 3, 2, 4, 3, 0, 1, 5, 0, 1, 4, 1, 1, 2, 0, 2, 1, 0, 3, 1}, uint8(4))
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 1, 3, 0, 2, 3}, uint8(16))
	f.Add([]byte{6, 0, 0, 0, 1, 0, 2, 1, 0, 1, 1, 1, 2, 0, 3, 0, 0, 0, 4, 1, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, pByte uint8) {
		const domain = 6
		p := 1 + int(pByte%32)
		r := data.NewRelation("S", 2, domain)
		seeded := make(map[[2]int64]bool)
		n := 0
		if len(raw) > 0 {
			n, raw = int(raw[0]%16), raw[1:]
		}
		for ; n > 0 && len(raw) >= 2; n, raw = n-1, raw[2:] {
			if k := [2]int64{int64(raw[0] % domain), int64(raw[1] % domain)}; !seeded[k] {
				seeded[k] = true
				r.Add(k[0], k[1])
			}
		}
		db := data.NewDatabase()
		db.Put(r)
		threshold := max(1, int64(r.Size())/int64(p))
		wasHeavy := func(a int, v int64) bool { return Frequencies(r, []int{a}).Count([]int64{v}) > threshold }
		var heavyAtStart [2][domain]bool
		for a := range heavyAtStart {
			for v := range heavyAtStart[a] {
				heavyAtStart[a][v] = wasHeavy(a, int64(v))
			}
		}
		w := NewHeavyWatch(new(Pass), db.Snapshot(), []string{"S"}, p)
		for ; len(raw) >= 3; raw = raw[3:] {
			insert := raw[0]%2 == 0
			vals := []int64{int64(raw[1] % domain), int64(raw[2] % domain)}
			d := new(data.Delta)
			if insert {
				d.Insert("S", vals...)
			} else {
				d.Delete("S", vals...)
			}
			if db.Apply(d) != nil {
				continue // a duplicate insert or an absent delete changes nothing
			}
			want := false
			for a, v := range vals {
				want = want || insert && wasHeavy(a, v) && !heavyAtStart[a][v]
			}
			if got := w.Note("S", vals, insert); got != want {
				t.Fatalf("p=%d threshold %d: Note(%v, insert=%v) = %v, recount says %v", p, threshold, vals, insert, got, want)
			}
		}
	})
}

// TestHeavyWatchKeepsNothingOfItsPass is the heap check for the watch's
// half of "the pass dies when planning returns": built through a pass whose
// groupings weigh megabytes, the watch alone keeps kilobytes alive.
func TestHeavyWatchKeepsNothingOfItsPass(t *testing.T) {
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	db := data.NewDatabase()
	r := data.NewRelation("S", 2, 1<<20) // 120000 rows over 300 and 400 values
	for i := int64(0); i < 120000; i++ {
		r.Add(i%300, i/300)
	}
	db.Put(r)
	before := liveHeap()
	ps := new(Pass)
	w := NewHeavyWatch(ps, db, []string{"S"}, 64)
	withPass := liveHeap() - before
	runtime.KeepAlive(ps)
	ps = nil
	watchOnly := liveHeap() - before
	runtime.KeepAlive(w)
	if withPass < 2<<20 {
		t.Fatalf("pass and watch hold only %d bytes: instance too small to tell a retained grouping", withPass)
	}
	if watchOnly > 256<<10 {
		t.Errorf("the watch alone keeps %d bytes alive (with its pass: %d): it retains a grouping", watchOnly, withPass)
	}
}

// TestPassReleaseReturnsEverything: Release hands every grouping a pass
// built, projections included and CollectDB's parallel ones too, back to
// the join scratch pool, and a released Freq panics on every read rather
// than read a recycled table.
func TestPassReleaseReturnsEverything(t *testing.T) {
	withParallelProcs(t)
	db := data.NewDatabase()
	for i, name := range []string{"A", "B", "C"} {
		r := data.NewRelation(name, 3, 1<<20)
		for j := int64(0); j < 400; j++ {
			r.Add(j%int64(5+i), j%7, j)
		}
		db.Put(r)
	}
	ps := new(Pass)
	ps.CollectDB(db, 8)
	a := db.MustGet("A")
	ps.Projection(a, []int{2, 0})
	var freqs []*Freq
	held := make(map[*join.Scratch]bool)
	for _, rp := range ps.rels {
		for _, f := range rp.freqs {
			freqs = append(freqs, f)
			held[f.sc] = true
		}
	}
	if len(freqs) != 3*7+1 || len(held) != len(freqs) {
		t.Fatalf("%d groupings on %d scratches, want 22 on as many", len(freqs), len(held))
	}
	// One P and an emptied pool: the next Gets return exactly what
	// Release puts.
	runtime.GOMAXPROCS(1)
	runtime.GC()
	runtime.GC()
	ps.Release()
	ps.Release() // idempotent: nothing is put twice
	for _, f := range freqs {
		if f.sc != nil || f.keys != nil {
			t.Fatalf("Freq over %v still holds its scratch after Release", f.Attrs)
		}
	}
	if poolKeepsPuts() {
		got := make([]*join.Scratch, len(held))
		for i := range got {
			got[i] = join.GetScratch()
			if !held[got[i]] {
				t.Errorf("Get %d after Release returned a scratch the pass never held", i)
			}
			delete(held, got[i])
		}
		for _, sc := range got {
			join.PutScratch(sc)
		}
	}
	f := ps.Frequencies(a, []int{2, 0})
	for name, read := range map[string]func(){
		"Count":      func() { f.Count([]int64{0, 0}) },
		"Each":       func() { f.Each(func([]int64, int64) {}) },
		"Projection": func() { ps.Projection(a, []int{2, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released Freq did not panic", name)
				}
			}()
			read()
		}()
	}
}

// poolKeepsPuts reports whether a sync.Pool hands back what was just put
// into it. Under the race detector Put drops a quarter of its items at
// random, and no pin on what a warm pool saves can hold.
func poolKeepsPuts() bool {
	var p sync.Pool
	for range 64 {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}
