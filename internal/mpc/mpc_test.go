package mpc

import (
	"testing"

	"repro/internal/data"
)

func singleRel(m int) *data.Database {
	domain := int64(1024) // 10 bits/value for m <= 1024
	for domain < int64(m) {
		domain *= 2
	}
	db := data.NewDatabase()
	r := data.NewRelation("S", 1, domain)
	for i := int64(0); i < int64(m); i++ {
		r.Add(i)
	}
	db.Put(r)
	return db
}

func TestRoundHashPartition(t *testing.T) {
	db := singleRel(1000)
	c := NewCluster(10)
	roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, int(cols[0][row]%10))
	}))
	loads := c.Loads()
	if loads.TotalTuples != 1000 {
		t.Errorf("TotalTuples = %d, want 1000 (no replication)", loads.TotalTuples)
	}
	if loads.MaxTuples != 100 {
		t.Errorf("MaxTuples = %d, want exactly 100 (mod partition)", loads.MaxTuples)
	}
	// 10 bits per tuple.
	if loads.TotalBits != 10000 {
		t.Errorf("TotalBits = %d, want 10000", loads.TotalBits)
	}
}

func TestRoundBroadcast(t *testing.T) {
	db := singleRel(50)
	c := NewCluster(4)
	all := []int{0, 1, 2, 3}
	roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, all...)
	}))
	loads := c.Loads()
	if loads.TotalTuples != 200 {
		t.Errorf("TotalTuples = %d, want 200", loads.TotalTuples)
	}
	for _, s := range c.Servers {
		if s.TuplesIn != 50 {
			t.Errorf("server %d received %d, want 50", s.ID, s.TuplesIn)
		}
		if s.Fragment("S").Size() != 50 {
			t.Errorf("server %d fragment size %d", s.ID, s.Fragment("S").Size())
		}
	}
}

func TestRoundDuplicateDestinationsDeliveredOnce(t *testing.T) {
	db := singleRel(10)
	c := NewCluster(2)
	roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, 0, 0, 0)
	}))
	if got := c.Servers[0].TuplesIn; got != 10 {
		t.Errorf("duplicates delivered: %d tuples, want 10", got)
	}
}

func TestRoundAccumulatesAcrossCalls(t *testing.T) {
	db := singleRel(10)
	c := NewCluster(2)
	r := routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, 0)
	})
	roundAll(c, db, r)
	roundAll(c, db, r)
	if got := c.Servers[0].TuplesIn; got != 20 {
		t.Errorf("TuplesIn = %d, want 20 after two rounds", got)
	}
}

func TestRoundOutOfRangeReportsError(t *testing.T) {
	db := singleRel(1)
	c := NewCluster(2)
	c.Senders = 1
	err := roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, 7)
	}))
	if err == nil {
		t.Fatal("expected error for bad destination")
	}
	if c.Loads().TotalTuples != 0 {
		t.Error("bad-destination tuple should be dropped")
	}
}

func TestComputeCollects(t *testing.T) {
	c := NewCluster(5)
	outs := make([][]data.Tuple, c.P)
	if failed := c.ComputeOn(nil, func(s *Server) {
		outs[s.ID] = []data.Tuple{{int64(s.ID)}}
	}); len(failed) != 0 {
		t.Fatalf("fault-free ComputeOn failed servers %v", failed)
	}
	// Each server's output lands at its own index.
	for i, out := range outs {
		if len(out) != 1 || out[0][0] != int64(i) {
			t.Errorf("outs[%d] = %v", i, out)
		}
	}
}

func TestReset(t *testing.T) {
	db := singleRel(10)
	c := NewCluster(2)
	roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, 0)
	}))
	c.Reset()
	loads := c.Loads()
	if loads.TotalBits != 0 || loads.TotalTuples != 0 {
		t.Error("Reset did not clear loads")
	}
	if c.Servers[0].Fragment("S") != nil {
		t.Error("Reset did not clear fragments")
	}
}

// roundAll routes every relation of db, in name order.
// routerFunc routes every relation through one function of the relation's
// name and the row, read in place from its columns.
type routerFunc func(name string, cols [][]int64, row int, dst []int) []int

func (f routerFunc) Bind(name string) Route { return funcRoute{f, name} }

// funcRoute is a routerFunc bound to one relation; it spans no run.
type funcRoute struct {
	f    routerFunc
	name string
}

func (r funcRoute) Destinations(cols [][]int64, row int, dst []int) []int {
	return r.f(r.name, cols, row, dst)
}

// Servers answers a row the function sends to one server with that server,
// in range or not, and any other row with -1.
func (r funcRoute) Servers(cols [][]int64, lo, hi int, out []int32) {
	var buf [8]int
	for i := range out {
		if dst := r.f(r.name, cols, lo+i, buf[:0]); len(dst) == 1 {
			out[i] = int32(dst[0])
		} else {
			out[i] = -1
		}
	}
}

func (funcRoute) CompileSpan([][]int64, int, int64, *SpanRoute) bool { return false }

func roundAll(c *Cluster, db *data.Database, router Router) error {
	rels := make([]*data.Relation, 0, len(db.Relations))
	for _, name := range db.Names() {
		rels = append(rels, db.Relations[name])
	}
	return c.RoundRelations(router, rels...)
}

func TestNewClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCluster(0)
}

func TestRoundMultipleRelations(t *testing.T) {
	db := data.NewDatabase()
	r1 := data.NewRelation("A", 1, 4) // 2 bits
	r1.Add(0)
	r1.Add(1)
	r2 := data.NewRelation("B", 2, 4) // 4 bits
	r2.Add(2, 3)
	db.Put(r1)
	db.Put(r2)
	c := NewCluster(2)
	roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		if name == "A" {
			return append(dst, 0)
		}
		return append(dst, 1)
	}))
	if c.Servers[0].Fragment("A").Size() != 2 || c.Servers[0].Fragment("B") != nil {
		t.Error("relation A misrouted")
	}
	if c.Servers[1].Fragment("B").Size() != 1 {
		t.Error("relation B misrouted")
	}
	if c.Servers[0].BitsIn != 4 || c.Servers[1].BitsIn != 4 {
		t.Errorf("bits: %d, %d; want 4, 4", c.Servers[0].BitsIn, c.Servers[1].BitsIn)
	}
}

func TestRoundManySendersConsistent(t *testing.T) {
	// Same routing with different sender counts must give identical loads.
	ref := NewCluster(8)
	refRouter := routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, int(cols[0][row]%8), int((cols[0][row]*7)%8))
	})
	db := singleRel(5000)
	ref.Senders = 1
	roundAll(ref, db, refRouter)

	c2 := NewCluster(8)
	c2.Senders = 13
	roundAll(c2, db, refRouter)

	l1, l2 := ref.Loads(), c2.Loads()
	if l1.TotalBits != l2.TotalBits || l1.MaxBits != l2.MaxBits {
		t.Errorf("sender count changed loads: %+v vs %+v", l1, l2)
	}
}

func TestGiniCoefficient(t *testing.T) {
	// All to one server: Gini near (n-1)/n.
	db := singleRel(100)
	c := NewCluster(4)
	roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, 0)
	}))
	g := c.GiniCoefficient()
	if g < 0.7 {
		t.Errorf("one-server Gini = %v, want near 0.75", g)
	}
	// Balanced: near 0.
	c2 := NewCluster(4)
	roundAll(c2, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, int(cols[0][row]%4))
	}))
	if g2 := c2.GiniCoefficient(); g2 > 0.1 {
		t.Errorf("balanced Gini = %v, want near 0", g2)
	}
	if NewCluster(3).GiniCoefficient() != 0 {
		t.Error("zero-load Gini should be 0")
	}
}

// Router purity property: the one-round model requires destinations to be
// a pure function of (relation, tuple). Routing the same database twice
// must produce bit-identical loads.
func TestRouterPurityProperty(t *testing.T) {
	db := singleRel(2000)
	router := routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, int(cols[0][row]%7), int((cols[0][row]*13)%7))
	})
	a := NewCluster(7)
	roundAll(a, db, router)
	b := NewCluster(7)
	roundAll(b, db, router)
	for i := range a.Servers {
		if a.Servers[i].BitsIn != b.Servers[i].BitsIn {
			t.Fatalf("server %d loads differ across identical rounds", i)
		}
	}
}

// Stress: many concurrent rounds on distinct clusters must not interfere.
func TestConcurrentClustersIndependent(t *testing.T) {
	db := singleRel(500)
	done := make(chan int64, 8)
	for g := 0; g < 8; g++ {
		go func() {
			c := NewCluster(4)
			roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
				return append(dst, int(cols[0][row]%4))
			}))
			done <- c.Loads().TotalBits
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if got := <-done; got != first {
			t.Fatalf("concurrent clusters disagree: %d vs %d", got, first)
		}
	}
}

func TestShuffleResidentMovesFragmentsServerToServer(t *testing.T) {
	db := singleRel(1000)
	c := NewCluster(10)
	// Round 1: mod-10 partition.
	if err := roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, int(cols[0][row]%10))
	})); err != nil {
		t.Fatal(err)
	}
	bitsAfterRound := c.Loads().TotalBits
	// Shuffle the resident fragments into a different layout (div-100
	// partition) without touching the database.
	if err := c.ShuffleResident(routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, int(cols[0][row]/100))
	}), "S"); err != nil {
		t.Fatal(err)
	}
	// Every tuple was received twice now: loads accumulate across rounds.
	if got := c.Loads().TotalBits; got != 2*bitsAfterRound {
		t.Errorf("TotalBits after shuffle = %d, want %d", got, 2*bitsAfterRound)
	}
	// The new layout holds every tuple exactly once, by value range.
	total := 0
	for id, s := range c.Servers {
		f := s.Fragment("S")
		if f == nil {
			t.Fatalf("server %d has no fragment after shuffle", id)
		}
		total += f.Size()
		for _, v := range f.Column(0) {
			if int(v/100) != id {
				t.Fatalf("server %d holds %d after div-100 shuffle", id, v)
			}
		}
	}
	if total != 1000 {
		t.Errorf("shuffled tuple count = %d, want 1000", total)
	}
}

func TestShuffleResidentSkipsMissingNames(t *testing.T) {
	c := NewCluster(4)
	if err := c.ShuffleResident(routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, 0)
	}), "nope"); err != nil {
		t.Fatal(err)
	}
	if c.Loads().TotalBits != 0 {
		t.Error("shuffling a missing relation moved bits")
	}
}

func TestComputeResidentReplacesFragments(t *testing.T) {
	db := singleRel(100)
	c := NewCluster(4)
	if err := roundAll(c, db, routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, int(cols[0][row]%4))
	})); err != nil {
		t.Fatal(err)
	}
	c.ComputeOn(nil, func(s *Server) {
		in := s.Fragment("S")
		if s.ID == 3 {
			s.Install(nil) // one server produces nothing
			return
		}
		out := data.NewRelation("doubled", 1, in.Domain)
		for _, v := range in.Column(0) {
			if 2*v < in.Domain {
				out.Add(2 * v)
			}
		}
		s.Install(out)
	})
	for id, s := range c.Servers {
		if s.Fragment("S") != nil {
			t.Errorf("server %d still holds the consumed input fragment", id)
		}
		if id == 3 {
			if len(s.Received) != 0 {
				t.Errorf("server 3 should be empty, holds %d fragments", len(s.Received))
			}
			continue
		}
		if s.Fragment("doubled") == nil {
			t.Errorf("server %d missing its output fragment", id)
		}
	}
	// Local computation is free in the model: loads unchanged.
	if got := c.Loads().TotalTuples; got != 100 {
		t.Errorf("TotalTuples = %d changed by local compute", got)
	}
}

func TestRoundRelationsRoutesOnlyListed(t *testing.T) {
	db := singleRel(100)
	extra := data.NewRelation("T", 1, 1024)
	extra.Add(1)
	db.Put(extra)
	c := NewCluster(4)
	if err := c.RoundRelations(routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, 0)
	}), db.MustGet("S")); err != nil {
		t.Fatal(err)
	}
	if c.Servers[0].Fragment("T") != nil {
		t.Error("unlisted relation was routed")
	}
	if c.Servers[0].Fragment("S") == nil || c.Servers[0].Fragment("S").Size() != 100 {
		t.Error("listed relation not fully routed")
	}
}

// bindOnly binds the relation named name through r and no other relation.
type bindOnly struct {
	name string
	r    Router
}

func (b bindOnly) Bind(name string) Route {
	if name != b.name {
		return nil
	}
	return b.r.Bind(name)
}

// TestRoundRelationsShipsNothingUnbound routes a relation the router does not
// bind next to one it does, heavy-partitioned so that the unbound one would
// take the span path if it were bound: it ships nothing, no server holds a
// fragment of it, and the bound relation is delivered, with its loads,
// exactly as in a round without it.
func TestRoundRelationsShipsNothingUnbound(t *testing.T) {
	const p = 5
	bound := singleRel(300).MustGet("S")
	unbound := data.NewRelation("U", 2, 1024)
	for i := int64(0); i < 400; i++ {
		unbound.Add(i%3, i)
	}
	unbound.BuildPartitions(0, 10)
	router := bindOnly{"S", routerFunc(func(name string, cols [][]int64, row int, dst []int) []int {
		return append(dst, int(cols[0][row])%p, int(cols[0][row]*7)%p)
	})}
	for _, senders := range []int{1, 3} {
		c, alone := NewCluster(p), NewCluster(p)
		c.Senders, alone.Senders = senders, senders
		if err := c.RoundRelations(router, unbound, bound); err != nil {
			t.Fatal(err)
		}
		if err := alone.RoundRelations(router, bound); err != nil {
			t.Fatal(err)
		}
		for _, s := range c.Servers {
			if f := s.Fragment("U"); f != nil {
				t.Errorf("senders=%d: server %d holds %d rows of the unbound relation", senders, s.ID, f.Size())
			}
		}
		if c.Loads() != alone.Loads() {
			t.Errorf("senders=%d: loads %+v, want %+v as in a round without the unbound relation", senders, c.Loads(), alone.Loads())
		}
		assertClustersEquivalent(t, alone, c)
	}
}
