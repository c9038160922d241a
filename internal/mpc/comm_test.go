package mpc

import (
	"fmt"
	"math"
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

// fuzzFanOut appends the destinations hash h picks among p servers: the
// destination sets of a relation's rows mostly differ (a large one meets
// well over 64 of them), except the family of four, which rows share.
func fuzzFanOut(h uint64, p int, dst []int) []int {
	pick := func(i int) int { return int((h ^ (h >> 7) ^ uint64(i)*2654435761) % uint64(p)) }
	switch h % 8 {
	case 0: // wide broadcast with duplicates
		n := 40 + int(h%17)
		for i := 0; i < n; i++ {
			dst = append(dst, pick(i%((n/2)+1)))
		}
	case 1, 2: // small fan-out with duplicates
		d := pick(0)
		dst = append(dst, d, pick(1), d)
	case 3, 4: // one of a family of four sets
		f := int(h >> 32 % 4)
		dst = append(dst, f%p, (f+1)%p, (f+3)%p)
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
	if err := roundAll(engine, db, router); err != nil {
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
	if err := roundAll(engine, db, router); err != nil {
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
	err := roundAll(c, db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
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
	if err := roundAll(c, db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
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
	if err := roundAll(c, db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
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
	if err := roundAll(c, db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
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

// TestValidDropsDuplicatesInPlace: valid keeps each in-range server's first
// occurrence, in order, reports every out-of-range one, and still tells
// rows apart once the row stamp wraps around.
func TestValidDropsDuplicatesInPlace(t *testing.T) {
	c := NewCluster(8)
	w := &commWorker{seen: make([]uint32, 8)}
	var reported []error
	report := func(err error) { reported = append(reported, err) }
	got := w.valid(c, []int{3, 1, 9, 3, 2, 1, -1, 3}, report)
	if want := []int{3, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("valid = %v, want %v", got, want)
	}
	if len(reported) != 2 {
		t.Fatalf("reported %d errors, want 2 (servers 9 and -1)", len(reported))
	}
	// A wide fan-out naming every server four times.
	wide := make([]int, 0, 32)
	for i := 0; i < 32; i++ {
		wide = append(wide, (i*5)%8)
	}
	if got := w.valid(c, wide, report); !slices.Equal(got, []int{0, 5, 2, 7, 4, 1, 6, 3}) {
		t.Fatalf("wide valid = %v, want every server once in first-occurrence order", got)
	}
	// The stamp wraps around: neither a stamp left from 2^32 rows ago
	// (seen[6] = 1) nor a server never named (seen[4] = 0) passes for a
	// duplicate.
	w.stamp = math.MaxUint32
	clear(w.seen)
	w.seen[6] = 1
	if got := w.valid(c, []int{4, 4, 6}, report); !slices.Equal(got, []int{4, 6}) {
		t.Fatalf("valid after the stamp wraps = %v, want [4 6]", got)
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
			if err := roundAll(c, db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
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
// resident shuffle that route a million tuples each, and a third
// million-tuple round that sends every row to two servers, a parked (Reset)
// cluster pins no more than the route-log budget plus its O(P) tables — a
// large round's logs are garbage once it commits. The third round is the
// worst case for the workers' set tables: p = 16 admits 240 ordered pairs
// of servers, and any 240 consecutive rows name all of them.
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
	if err := roundAll(c, db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)%p))
	})); err != nil {
		t.Fatal(err)
	}
	if err := c.ShuffleResident(RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		return append(dst, int(rel.At(row, 0)/7%p))
	}), "S"); err != nil {
		t.Fatal(err)
	}
	if err := roundAll(c, db, RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		v := int(rel.At(row, 0))
		a := v % p
		return append(dst, a, (a+1+v/p%(p-1))%p)
	})); err != nil {
		t.Fatal(err)
	}
	if got := c.Loads().TotalTuples; got != 4*m {
		t.Fatalf("routed %d tuples, want %d", got, 4*m)
	}
	c.Reset()
	retained := heap() - before
	if limit := int64(4*logBudget + 64<<10); retained > limit {
		t.Errorf("parked cluster retains %d bytes after routing %d tuples, limit %d", retained, 4*m, limit)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(db)
}

// TestWorkerDropsOversizedSetScratch: a round whose rows name thousands of
// distinct destination sets leaves no worker holding more than setBudget
// entries of set scratch, and the rounds after it, which start from
// dropped tables, still deliver exactly what the reference does.
func TestWorkerDropsOversizedSetScratch(t *testing.T) {
	const m, p = 20000, 16
	rel := singleRel(m).MustGet("S")
	// Row v goes to the servers of the bits of v mod 2^16 − 1, plus one:
	// every nonempty subset of the 16 servers once per 65,535 rows.
	router := RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		bits := rel.At(row, 0)%(1<<p-1) + 1
		for s := 0; s < p; s++ {
			if bits>>s&1 == 1 {
				dst = append(dst, s)
			}
		}
		return dst
	})
	reference, engine := NewCluster(p), NewCluster(p)
	for round := 0; round < 2; round++ {
		if err := referenceRound(reference, router, rel); err != nil {
			t.Fatal(err)
		}
		if err := engine.RoundRelations(router, rel); err != nil {
			t.Fatal(err)
		}
		for i, w := range engine.comm.workers {
			if n := cap(w.sets) + cap(w.used) + len(w.index); n > setBudget {
				t.Fatalf("round %d: worker %d keeps %d entries of set scratch, budget %d", round, i, n, setBudget)
			}
		}
	}
	assertClustersEquivalent(t, reference, engine)
}

// TestWarmFanOutRoundAllocatesOnlyFragments: on a warmed cluster, a round
// whose every row fans out to four servers allocates its fragments and a
// constant besides — its route logs stay one code per row, in the retained
// arena, instead of growing with the fan-out. R(x, y) and S(y, z) route
// through a 4×4×4 subcube router at p = 64: R to (x, y, *), S to (*, y, z),
// 16 distinct destination sets each.
func TestWarmFanOutRoundAllocatesOnlyFragments(t *testing.T) {
	const m, p = 4096, 64
	rng := rand.New(rand.NewSource(1))
	db := data.NewDatabase()
	for _, name := range []string{"R", "S"} {
		rel := data.NewRelation(name, 2, 1<<12)
		for i := 0; i < m; i++ {
			rel.Add(rng.Int63n(1<<12), rng.Int63n(1<<12))
		}
		db.Put(rel)
	}
	router := RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		a, b := int(rel.At(row, 0)%4), int(rel.At(row, 1)%4)
		for free := 0; free < 4; free++ {
			if rel.Name == "R" {
				dst = append(dst, a*16+b*4+free)
			} else {
				dst = append(dst, free*16+a*4+b)
			}
		}
		return dst
	})
	c := NewCluster(p)
	for warm := 0; warm < 3; warm++ {
		c.Reset()
		if err := roundAll(c, db, router); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := roundAll(c, db, router); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fragments, frags := int64(0), int64(0)
	for _, s := range c.Servers {
		for _, f := range s.Received {
			fragments += int64(8 * f.Arity * f.Size())
			frags++
		}
	}
	if fragments != 8*2*2*4*m {
		t.Fatalf("fragments hold %d bytes, want %d", fragments, 8*2*2*4*m)
	}
	// Per fragment a relation header and its column slices, per round a
	// few closures and slices.
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	if limit := fragments + 512*frags + 16<<10; allocated > limit {
		t.Errorf("a warm fan-out round allocated %d bytes for %d bytes of fragments, limit %d", allocated, fragments, limit)
	}
	t.Logf("allocated %d bytes: %d of fragments, %d besides over %d fragments", allocated, fragments, allocated-fragments, frags)
}

// TestInternCollisionStoresSetAgain: a set whose slot in the worker's table
// holds a different set is stored again, and rows routed through sets
// stored twice are delivered exactly as the reference delivers them.
func TestInternCollisionStoresSetAgain(t *testing.T) {
	const m, p = 600, 8
	rel := singleRel(m).MustGet("S")
	// Rows go to one server or to one of five sets, some of them repeated
	// in runs (v/3 changes every third row).
	router := RouterFunc(func(rel *data.Relation, row int, dst []int) []int {
		switch v := int(rel.At(row, 0)) / 3; v % 6 {
		case 0:
			return append(dst, v%p)
		default:
			return append(dst, v%6, (v%6+2)%p, (v%6+5)%p)
		}
	})
	c := NewCluster(p)
	c.parallel(1, func(*commWorker, func() int) {})
	w := c.comm.workers[0]
	report := func(err error) { t.Fatal(err) }
	lg := partLog{codes: make([]int32, 0, m), pairs: make([]int32, 0, 2*p)}
	w.codes = lg.codes
	first := int32(0) // the offset of the first set stored, which every collision names
	for row := 0; row < m; row++ {
		w.dst = router.Destinations(rel, row, w.dst[:0])
		if len(w.dst) == 1 || first == 0 {
			w.logRows(c, 1, w.dst, report)
			if len(w.dst) > 1 {
				first = -1 - w.codes[len(w.codes)-1]
			}
			continue
		}
		// Point the row's slot at the first set, as a hash collision with
		// it would.
		w.index[setHash(w.dst)>>w.shift] = first
		w.logRows(c, 1, w.dst, report)
		off := -1 - w.codes[len(w.codes)-1]
		if got := w.sets[off+1 : off+1+w.sets[off]]; !slices.Equal(got, []int32{int32(w.dst[0]), int32(w.dst[1]), int32(w.dst[2])}) {
			t.Fatalf("row %d: code names set %v, want %v", row, got, w.dst)
		}
		if row%2 == 0 {
			// Hand the set's own slot to the first set too: the next row
			// naming it must store it again.
			for i, o := range w.index {
				if o == off {
					w.index[i] = first
				}
			}
		}
	}
	if w.nsets <= 5 {
		t.Errorf("the worker stored %d sets, want duplicates past the 5 distinct", w.nsets)
	}
	w.endPart(&lg)
	c.commit([]sendPart{{rel: rel, lo: 0, hi: m}}, []partLog{lg})
	reference := NewCluster(p)
	if err := referenceRound(reference, router, rel); err != nil {
		t.Fatal(err)
	}
	assertClustersEquivalent(t, reference, c)
}

// TestCommitPanicsPastInt32Rows: fragment offsets are int32, so a round
// that would grow a fragment past 2^31-1 rows panics in the prefix pass —
// before anything is allocated — instead of wrapping. Two parts claim 2^30
// rows each for server 0.
func TestCommitPanicsPastInt32Rows(t *testing.T) {
	rel := data.NewRelation("S", 1, 2)
	parts := []sendPart{{rel: rel}, {rel: rel}}
	logs := []partLog{{pairs: []int32{0, 1 << 30}}, {pairs: []int32{0, 1 << 30}}}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "past 2^31-1") {
			t.Fatalf("a 2^31-row fragment panicked with %q, want the row-bound panic", msg)
		}
	}()
	NewCluster(2).commit(parts, logs)
}
