package mpc

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/data"
)

// fuzzDB builds a small random database from rng: 1–3 relations of arity
// 1–3 over a modest domain, a third of whose values come from {0..3} so
// that low partition thresholds find heavy runs.
func fuzzDB(rng *rand.Rand) *data.Database {
	db := data.NewDatabase()
	names := []string{"A", "B", "C"}
	for _, name := range names[:1+rng.Intn(3)] {
		arity := 1 + rng.Intn(3)
		domain := int64(64 + rng.Intn(2048))
		r := data.NewRelation(name, arity, domain)
		m := rng.Intn(400)
		for i := 0; i < m; i++ {
			r.Add(fuzzTuple(rng, arity, domain)...)
		}
		db.Put(r)
	}
	return db
}

func fuzzTuple(rng *rand.Rand, arity int, domain int64) []int64 {
	vals := make([]int64, arity)
	for a := range vals {
		if vals[a] = rng.Int63n(domain); rng.Intn(3) == 0 {
			vals[a] %= 4
		}
	}
	return vals
}

// fuzzPartition builds the heavy-partition layout of a random subset of
// rels, each on a random attribute with a low threshold, and appends a few
// rows past some layouts (the uncovered tail). Identical rng states give
// identical layouts.
func fuzzPartition(rng *rand.Rand, rels ...*data.Relation) {
	for _, rel := range rels {
		if rng.Intn(2) == 0 {
			continue
		}
		rel.BuildPartitions(rng.Intn(rel.Arity), int64(1+rng.Intn(4)))
		for n := rng.Intn(4); n > 0; n-- {
			rel.Add(fuzzTuple(rng, rel.Arity, rel.Domain)...)
		}
	}
}

// fuzzRouter is a pure span router with a mix of fan-out shapes: singles,
// small fan-outs with duplicates, and wide broadcasts (exercising the
// map-based dedup path). A row's destinations depend only on (relation
// name, its values, seed); when the row's value v at its relation's span
// attribute falls in v's uniform class they depend on v alone, which is
// what lets a heavy run of v compile to one uniform destination list. Runs
// of the per-row class compile to a closure and the rest are declined, so
// the engine takes every route path its contract allows.
type fuzzRouter struct {
	p    int
	seed uint64
	attr map[string]int // relation name → its span attribute
}

const (
	fuzzUniform = iota
	fuzzPerRow
	fuzzDeclined
)

func (r *fuzzRouter) class(v int64) uint64 {
	return (r.seed ^ uint64(v)*0x9e3779b97f4a7c15) >> 33 % 3
}

func (r *fuzzRouter) nameHash(name string) uint64 {
	h := r.seed
	for _, c := range name {
		h = h*1099511628211 + uint64(c)
	}
	return h
}

func (r *fuzzRouter) Destinations(rel *data.Relation, row int, dst []int) []int {
	h := r.nameHash(rel.Name)
	if a, ok := r.attr[rel.Name]; ok && r.class(rel.At(row, a)) == fuzzUniform {
		return fuzzFanOut(h*1099511628211+uint64(rel.At(row, a)), r.p, dst)
	}
	for a := 0; a < rel.Arity; a++ {
		h = h*1099511628211 + uint64(rel.At(row, a))
	}
	return fuzzFanOut(h, r.p, dst)
}

func (r *fuzzRouter) SpansAttr(rel *data.Relation, attr int) bool {
	a, ok := r.attr[rel.Name]
	return ok && a == attr
}

func (r *fuzzRouter) CompileSpan(rel *data.Relation, attr int, v int64, route *SpanRoute) bool {
	h := r.nameHash(rel.Name)
	switch r.class(v) {
	case fuzzUniform:
		route.Dests = fuzzFanOut(h*1099511628211+uint64(v), r.p, route.Dests)
	case fuzzPerRow:
		cols, p := rel.Columns(), r.p
		route.PerRow = func(row int, dst []int) []int {
			rh := h
			for _, col := range cols {
				rh = rh*1099511628211 + uint64(col[row])
			}
			return fuzzFanOut(rh, p, dst)
		}
	default:
		return false
	}
	return true
}

// fuzzFanOut appends the destinations hash h picks among p servers.
func fuzzFanOut(h uint64, p int, dst []int) []int {
	pick := func(i int) int { return int((h ^ (h >> 7) ^ uint64(i)*2654435761) % uint64(p)) }
	switch h % 8 {
	case 0: // wide broadcast with duplicates, beyond the scan limit
		n := dedupScanLimit + 8 + int(h%17)
		for i := 0; i < n; i++ {
			dst = append(dst, pick(i%((n/2)+1)))
		}
	case 1, 2: // small fan-out with duplicates
		d := pick(0)
		dst = append(dst, d, pick(1), d)
	default:
		dst = append(dst, pick(0))
	}
	return dst
}

// assertClustersEquivalent checks both clusters delivered identical loads
// and identical fragments, as sequences, on every server.
func assertClustersEquivalent(t *testing.T, want, got *Cluster) {
	t.Helper()
	if want.P != got.P {
		t.Fatalf("cluster sizes differ: %d vs %d", want.P, got.P)
	}
	for i := range want.Servers {
		ws, gs := want.Servers[i], got.Servers[i]
		if ws.BitsIn != gs.BitsIn || ws.TuplesIn != gs.TuplesIn {
			t.Fatalf("server %d loads differ: (%d bits, %d tuples) vs (%d bits, %d tuples)",
				i, ws.BitsIn, ws.TuplesIn, gs.BitsIn, gs.TuplesIn)
		}
		if len(ws.Received) != len(gs.Received) {
			t.Fatalf("server %d fragment sets differ: %d vs %d relations", i, len(ws.Received), len(gs.Received))
		}
		for name, wf := range ws.Received {
			gf := gs.Received[name]
			if gf == nil {
				t.Fatalf("server %d missing fragment %q", i, name)
			}
			if wf.Arity != gf.Arity || wf.Domain != gf.Domain || wf.Size() != gf.Size() {
				t.Fatalf("server %d fragment %q shapes differ", i, name)
			}
			for col := 0; col < wf.Arity; col++ {
				ca, cb := wf.Column(col), gf.Column(col)
				for row := range ca {
					if ca[row] != cb[row] {
						t.Fatalf("server %d fragment %q differs as a sequence (col %d row %d: %d vs %d)",
							i, name, col, row, ca[row], cb[row])
					}
				}
			}
		}
	}
}

// referenceRound is the oracle the delivery engine is differentially tested
// against: the communication phase exactly as the model states it, serially
// on the calling goroutine. Every row is routed through Destinations alone
// (no spans, logs or workers), duplicate destinations are dropped through
// a per-row set, and each surviving (row, server) pair is one appended row
// plus BitsPerTuple of load.
func referenceRound(c *Cluster, router Router, rels ...*data.Relation) error {
	for _, rel := range rels {
		for row := 0; row < rel.Size(); row++ {
			seen := map[int]bool{}
			for _, server := range router.Destinations(rel, row, nil) {
				if seen[server] {
					continue
				}
				seen[server] = true
				if server < 0 || server >= c.P {
					return fmt.Errorf("reference: destination %d out of range [0,%d)", server, c.P)
				}
				s := c.Servers[server]
				frag, ok := s.Received[rel.Name]
				if !ok {
					frag = data.NewRelation(rel.Name, rel.Arity, rel.Domain)
					s.Received[rel.Name] = frag
				}
				frag.AppendRow(rel, row)
				s.BitsIn += rel.BitsPerTuple()
				s.TuplesIn++
			}
		}
	}
	return nil
}

// referenceShuffle is the oracle for ShuffleResident: detach the named
// fragments from every server, then deliver them like any other relations.
func referenceShuffle(c *Cluster, router Router, names ...string) error {
	var moved []*data.Relation
	for _, s := range c.Servers {
		for _, name := range names {
			if frag, ok := s.Received[name]; ok {
				delete(s.Received, name)
				moved = append(moved, frag)
			}
		}
	}
	return referenceRound(c, router, moved...)
}

// runEngines routes db (plus a resident shuffle) through the engine and the
// serial reference delivery and asserts equivalence. A random subset of the
// relations, and later of the shuffled fragments, is heavy-partitioned, so
// span routing is compared row for row against the reference too.
func runEngines(t *testing.T, seed uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	db := fuzzDB(rng)
	p := 1 + rng.Intn(40)
	var rels []*data.Relation
	attr := map[string]int{}
	for _, name := range db.Names() {
		rel := db.Relations[name]
		rels = append(rels, rel)
		if rng.Intn(4) > 0 {
			attr[name] = rng.Intn(rel.Arity)
		}
	}
	fuzzPartition(rng, rels...)
	router := &fuzzRouter{p: p, seed: seed, attr: attr}

	reference := NewCluster(p)
	if err := referenceRound(reference, router, rels...); err != nil {
		t.Fatalf("reference delivery: %v", err)
	}
	engine := NewCluster(p)
	engine.Senders = 1 + rng.Intn(12)
	engine.ResidentChunk = 1 + rng.Intn(64)
	if err := engine.Round(db, router); err != nil {
		t.Fatalf("engine: %v", err)
	}
	assertClustersEquivalent(t, reference, engine)

	// A resident shuffle through a second pure router must also agree
	// (exercises fragment chunking on whatever skew the first round made).
	// Both clusters' fragments are equal sequences, so two generators in the
	// same state partition them identically.
	names := db.Names()
	layout := rng.Int63()
	for _, c := range []*Cluster{reference, engine} {
		lr := rand.New(rand.NewSource(layout))
		for _, s := range c.Servers {
			for _, name := range names {
				if frag := s.Received[name]; frag != nil {
					fuzzPartition(lr, frag)
				}
			}
		}
	}
	router2 := &fuzzRouter{p: p, seed: seed ^ 0x9e3779b97f4a7c15, attr: attr}
	if err := referenceShuffle(reference, router2, names...); err != nil {
		t.Fatalf("reference shuffle: %v", err)
	}
	if err := engine.ShuffleResident(router2, names...); err != nil {
		t.Fatalf("engine shuffle: %v", err)
	}
	assertClustersEquivalent(t, reference, engine)
}

// TestEnginesEquivalent pins a spread of deterministic seeds; the fuzz
// target below explores further.
func TestEnginesEquivalent(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		runEngines(t, seed)
	}
}

// FuzzCommunicateEngines differentially fuzzes the engine against the
// serial reference delivery: identical per-server loads and identical
// delivered fragments, row for row, on random databases, partition layouts,
// span routers, Senders and chunk sizes, after a round and after a resident
// shuffle (a fragment holds its rows in (part, row) order, which is the
// reference's append order, whichever route path each row took).
func FuzzCommunicateEngines(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1 << 20, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runEngines(t, seed)
	})
}

// TestReferenceDeliveryByHand pins the oracle itself (and the engine beside
// it) to a case small enough to write out: S = {1, 2, 5} over domain 8
// (3 bits per tuple), two servers, and a router that names v mod 2 twice
// around server 1.
//
//	1 → [1 1 1] → {1}      2 → [0 1 0] → {0, 1}      5 → [1 1 1] → {1}
//
// Server 0 receives (2): 1 tuple, 3 bits. Server 1 receives (1, 2, 5), in
// that order: 3 tuples, 9 bits. Four deliveries for nine named destinations.
func TestReferenceDeliveryByHand(t *testing.T) {
	rel := data.NewRelation("S", 1, 8)
	for _, v := range []int64{1, 2, 5} {
		rel.Add(v)
	}
	db := data.NewDatabase()
	db.Put(rel)
	router := RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%2), 1, int(rel.At(row, 0)%2))
	})
	reference := NewCluster(2)
	if err := referenceRound(reference, router, rel); err != nil {
		t.Fatal(err)
	}
	engine := NewCluster(2)
	if err := engine.Round(db, router); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		bits, tuples int64
		values       []int64
	}{
		{bits: 3, tuples: 1, values: []int64{2}},
		{bits: 9, tuples: 3, values: []int64{1, 2, 5}},
	}
	for _, c := range []*Cluster{reference, engine} {
		for id, w := range want {
			s := c.Servers[id]
			if s.BitsIn != w.bits || s.TuplesIn != w.tuples {
				t.Errorf("server %d load = (%d bits, %d tuples), want (%d, %d)", id, s.BitsIn, s.TuplesIn, w.bits, w.tuples)
			}
			if len(s.Received) != 1 || s.Fragment("S") == nil {
				t.Fatalf("server %d holds %d fragments, want exactly S", id, len(s.Received))
			}
			if got := s.Fragment("S").Column(0); !slices.Equal(got, w.values) {
				t.Errorf("server %d fragment = %v, want %v", id, got, w.values)
			}
		}
	}
}

func TestShardedOutOfRangeReportsError(t *testing.T) {
	db := singleRel(10)
	c := NewCluster(2)
	err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, 7)
	}))
	if err == nil {
		t.Fatal("expected error for bad destination")
	}
	if c.Loads().TotalTuples != 0 {
		t.Error("bad-destination tuple should be dropped")
	}
}

func TestResizeReusesServersAndMaps(t *testing.T) {
	c := NewCluster(8)
	db := singleRel(100)
	if err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%8))
	})); err != nil {
		t.Fatal(err)
	}
	s0, s7 := c.Servers[0], c.Servers[7]

	c.Resize(4)
	if c.P != 4 || len(c.Servers) != 4 {
		t.Fatalf("Resize(4): P=%d, %d servers", c.P, len(c.Servers))
	}
	if c.Capacity() != 8 {
		t.Errorf("Capacity = %d, want 8", c.Capacity())
	}
	if c.Servers[0] != s0 {
		t.Error("Resize did not reuse server 0")
	}
	if len(s0.Received) != 0 || s0.BitsIn != 0 || s0.TuplesIn != 0 {
		t.Error("Resize did not reset the retained server")
	}
	if len(s7.Received) != 0 {
		t.Error("Resize left a fragment pinned on a parked server")
	}

	c.Resize(8)
	if c.Servers[0] != s0 || c.Servers[7] != s7 {
		t.Error("growing back did not reuse parked servers")
	}
	if err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%8))
	})); err != nil {
		t.Fatal(err)
	}
	if got := c.Loads().TotalTuples; got != 100 {
		t.Errorf("TotalTuples after resize round = %d, want 100", got)
	}
	c.Reset()
	if len(s0.Received) != 0 {
		t.Error("Reset left entries behind")
	}
}

func TestResizePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCluster(2).Resize(0)
}

func TestAppendChunkedParts(t *testing.T) {
	rel := data.NewRelation("S", 1, 1024)
	for i := int64(0); i < 10; i++ {
		rel.Add(i)
	}
	parts := appendChunkedParts(nil, rel, 4)
	want := []sendPart{{rel, 0, 4}, {rel, 4, 8}, {rel, 8, 10}}
	if len(parts) != len(want) {
		t.Fatalf("parts = %d, want %d", len(parts), len(want))
	}
	for i, p := range parts {
		if p != want[i] {
			t.Errorf("part %d = [%d,%d), want [%d,%d)", i, p.lo, p.hi, want[i].lo, want[i].hi)
		}
	}
	if got := appendChunkedParts(nil, data.NewRelation("E", 1, 2), 4); len(got) != 0 {
		t.Errorf("empty relation produced %d parts", len(got))
	}
	// A non-positive chunk degrades to single-row parts, never loops.
	if got := appendChunkedParts(nil, rel, 0); len(got) != 10 {
		t.Errorf("chunk 0 produced %d parts, want 10", len(got))
	}
}

// TestShuffleResidentChunksHotFragment routes everything to one server,
// then shuffles it back out: the hot fragment is larger than the chunking
// threshold, and the redistribution must still be exact.
func TestShuffleResidentChunksHotFragment(t *testing.T) {
	m := 3*DefaultResidentChunkTuples + 17
	domain := int64(1)
	for domain < int64(m) {
		domain *= 2
	}
	db := data.NewDatabase()
	r := data.NewRelation("S", 1, domain)
	for i := int64(0); i < int64(m); i++ {
		r.Add(i)
	}
	db.Put(r)
	c := NewCluster(8)
	if err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, 0) // one hot server holds the whole intermediate
	})); err != nil {
		t.Fatal(err)
	}
	if err := c.ShuffleResident(RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%8))
	}), "S"); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for id, s := range c.Servers {
		f := s.Fragment("S")
		if f == nil {
			t.Fatalf("server %d empty after chunked shuffle", id)
		}
		for _, v := range f.Column(0) {
			if int(v%8) != id {
				t.Fatalf("server %d holds %d after mod-8 shuffle", id, v)
			}
			got = append(got, v)
		}
	}
	if len(got) != m {
		t.Fatalf("shuffled tuple count = %d, want %d", len(got), m)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("tuple %d lost or duplicated in chunked shuffle", i)
		}
	}
}

func TestDedupSetShrinksAfterWideBroadcast(t *testing.T) {
	var ds dedupSet
	wide := make([]int, 4*dedupShrinkFloor)
	for i := range wide {
		wide[i] = i
	}
	ds.dedup(wide)
	if ds.sized != len(wide) {
		t.Fatalf("sized = %d after wide dedup, want %d", ds.sized, len(wide))
	}
	// A narrow (but still map-path) fan-out must drop the huge map.
	narrow := make([]int, dedupScanLimit+4)
	for i := range narrow {
		narrow[i] = i % 8
	}
	out := ds.dedup(narrow)
	if len(out) != 8 {
		t.Fatalf("narrow dedup kept %d, want 8", len(out))
	}
	if ds.sized != len(narrow) {
		t.Errorf("sized = %d after shrink (map should be recreated at the narrow fan-out), want %d", ds.sized, len(narrow))
	}
	// Small fan-outs never touch the map at all.
	small := []int{3, 1, 3, 2, 1}
	got := ds.dedup(small)
	want := []int{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("scan dedup = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan dedup = %v, want %v (order must be first-occurrence)", got, want)
		}
	}
}

// TestShardedGoroutineBound asserts the engine's goroutine count stays
// O(GOMAXPROCS) even with hundreds of virtual servers — never one receiver
// per server plus one sender per part.
func TestShardedGoroutineBound(t *testing.T) {
	db := singleRel(5000)
	c := NewCluster(512)
	c.Senders = 64
	base := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 3; r++ {
			if err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
				return append(dst, int(rel.At(row, 0)%512), int((rel.At(row, 0)*7)%512))
			})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	peak := 0
	for {
		select {
		case <-done:
			limit := base + 2*runtime.GOMAXPROCS(0) + 4
			if peak > limit {
				t.Errorf("peak goroutines = %d, want <= %d (base %d)", peak, limit, base)
			}
			return
		default:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			runtime.Gosched()
		}
	}
}

// TestParkedClusterRetainsBoundedScratch: after a Round and a chunked
// resident shuffle that route a million tuples each, a parked (Reset)
// cluster pins no more than the route-log budget plus its O(P) tables — a
// large round's logs are garbage once it commits.
func TestParkedClusterRetainsBoundedScratch(t *testing.T) {
	const m, p = 1 << 20, 16
	db := singleRel(m)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	c := NewCluster(p)
	if err := c.Round(db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%p))
	})); err != nil {
		t.Fatal(err)
	}
	if err := c.ShuffleResident(RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)/7%p))
	}), "S"); err != nil {
		t.Fatal(err)
	}
	if got := c.Loads().TotalTuples; got != 2*m {
		t.Fatalf("routed %d tuples, want %d", got, 2*m)
	}
	c.Reset()
	retained := heap() - before
	if limit := int64(4*logBudget + 64<<10); retained > limit {
		t.Errorf("parked cluster retains %d bytes after routing %d tuples, limit %d", retained, 2*m, limit)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(db)
}

// TestCommitPanicsPastInt32Rows: fragment offsets are int32, so a round
// that would grow a fragment past 2^31-1 rows panics in the prefix pass —
// before anything is allocated — instead of wrapping. Two parts claim 2^30
// rows each for server 0.
func TestCommitPanicsPastInt32Rows(t *testing.T) {
	rel := data.NewRelation("S", 1, 2)
	parts := []sendPart{{rel: rel}, {rel: rel}}
	logs := []partLog{{log: []int32{0, 1 << 30}}, {log: []int32{0, 1 << 30}}}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "past 2^31-1") {
			t.Fatalf("a 2^31-row fragment panicked with %q, want the row-bound panic", msg)
		}
	}()
	NewCluster(2).commit(parts, logs)
}
