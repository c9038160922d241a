package exec

import (
	"slices"
	"testing"

	"repro/internal/mpc"
)

func TestClusterPoolReusesAcrossBucketSizes(t *testing.T) {
	var cp ClusterPool
	c1 := cp.Get(5)
	if c1.P != 5 {
		t.Fatalf("Get(5).P = %d", c1.P)
	}
	if c1.Capacity() != 8 {
		t.Errorf("Get(5) capacity = %d, want the full bucket (8)", c1.Capacity())
	}
	cp.Put(c1)
	// sync.Pool drops Puts at random when the race detector is on, so
	// assert reuse statistically: across many put/get cycles in the same
	// power-of-two bucket, some Get must return a previously parked
	// cluster — and every returned cluster must come back fully reset.
	seen := map[*mpc.Cluster]bool{c1: true}
	reused := false
	for i := 0; i < 64 && !reused; i++ {
		c := cp.Get(8)
		if seen[c] {
			reused = true
		}
		seen[c] = true
		if c.P != 8 || len(c.Servers) != 8 {
			t.Fatalf("bucket-8 Get resized wrong: P=%d servers=%d", c.P, len(c.Servers))
		}
		for _, s := range c.Servers {
			if s.BitsIn != 0 || s.TuplesIn != 0 || len(s.Received) != 0 {
				t.Fatal("pooled cluster not reset")
			}
		}
		cp.Put(c)
	}
	if !reused {
		t.Error("no Get(8) ever reused a parked bucket-8 cluster")
	}
	// A different bucket never returns a bucket-8 cluster.
	c3 := cp.Get(9)
	if seen[c3] {
		t.Error("Get(9) reused a bucket-8 cluster")
	}
	if c3.Capacity() != 16 {
		t.Errorf("Get(9) capacity = %d, want 16", c3.Capacity())
	}
}

func TestClusterPoolGetPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var cp ClusterPool
	cp.Get(0)
}

// TestRunReusesPooledCluster runs the same plan repeatedly against an
// explicit pool: some run must draw a previously parked cluster (the pool
// may drop Puts at random under the race detector, so the assertion is
// statistical), and loads must never drift — no state leaks through reuse.
func TestRunReusesPooledCluster(t *testing.T) {
	db := testDB()
	plan := &PhysicalPlan{Strategy: "test", Virtual: 4, Physical: 2, Router: modRouter(4), Relations: []string{"S"}, Query: copyS}
	var cp ClusterPool
	cfg := Config{Clusters: &cp}
	r1, _ := Execute(OneRound(plan), db, cfg)
	seen := make(map[*mpc.Cluster]bool)
	reused := false
	for i := 0; i < 64 && !reused; i++ {
		probe := cp.Get(4) // what the last Run parked, when the pool kept it
		if seen[probe] {
			reused = true
		}
		seen[probe] = true
		cp.Put(probe)
		r, _ := Execute(OneRound(plan), db, cfg)
		if r.Rounds[0].LoadSummary != r1.Rounds[0].LoadSummary || !slices.Equal(r.Rounds[0].PerServerBits, r1.Rounds[0].PerServerBits) {
			t.Fatalf("loads drifted across pooled reuse: %+v vs %+v", r.Rounds[0], r1.Rounds[0])
		}
	}
	if !reused {
		t.Error("no execution ever reused a pooled cluster")
	}
}
