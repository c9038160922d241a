package exec

import (
	"context"
	"testing"

	"repro/internal/data"
	"repro/internal/mpc"
)

// TestClusterPoolBounded: a burst of Puts beyond the per-bucket depth
// discards clusters instead of pinning them, and Stats reports it; parked
// clusters serve the next Gets, and each bucket bounds its own depth.
func TestClusterPoolBounded(t *testing.T) {
	const depth, extra = DefaultClusterPoolDepth, 3
	var cp ClusterPool
	burst := make([]*mpc.Cluster, depth+extra)
	for i := range burst {
		burst[i] = cp.Get(8)
	}
	for _, c := range burst {
		cp.Put(c)
	}
	st := cp.Stats()
	if st.Parked != depth {
		t.Fatalf("parked = %d, want depth %d", st.Parked, depth)
	}
	if st.Discards != extra {
		t.Fatalf("discards = %d, want %d", st.Discards, extra)
	}
	if st.Gets != depth+extra || st.Puts != depth+extra || st.Reuses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ParkedServers != depth*8 {
		t.Fatalf("parked servers = %d, want %d×8", st.ParkedServers, depth)
	}
	// The parked clusters serve the next depth Gets.
	reused := make([]*mpc.Cluster, depth)
	for i := range reused {
		reused[i] = cp.Get(8)
	}
	if st := cp.Stats(); st.Reuses != depth || st.Parked != 0 {
		t.Fatalf("after reuse: %+v", st)
	}
	for _, c := range reused {
		cp.Put(c)
	}

	// Different buckets have independent depths.
	big := make([]*mpc.Cluster, depth+1)
	for i := range big {
		big[i] = cp.Get(100)
	}
	for _, c := range big {
		cp.Put(c)
	}
	if st := cp.Stats(); st.Parked != 2*depth { // depth in bucket-8, depth in bucket-128
		t.Fatalf("parked = %d, want %d across buckets", st.Parked, 2*depth)
	}
}

// TestClusterPoolDefaultDepth: a zero-value pool, at a bucket size other
// than TestClusterPoolBounded's, parks DefaultClusterPoolDepth clusters
// and discards the rest.
func TestClusterPoolDefaultDepth(t *testing.T) {
	var cp ClusterPool
	clusters := make([]*mpc.Cluster, DefaultClusterPoolDepth+3)
	for i := range clusters {
		clusters[i] = cp.Get(4)
	}
	for _, c := range clusters {
		cp.Put(c)
	}
	if st := cp.Stats(); st.Parked != DefaultClusterPoolDepth || st.Discards != 3 {
		t.Fatalf("stats = %+v, want %d parked / 3 discards", st, DefaultClusterPoolDepth)
	}
}

// TestRunCanceledContext: a canceled context aborts before routing and
// returns ctx.Err(); a live context runs normally.
func TestRunCanceledContext(t *testing.T) {
	db := testDB()
	plan := &PhysicalPlan{Strategy: "test", Virtual: 4, Physical: 2, Router: modRouter(4), Relations: []string{"S"}, Query: copyS}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Execute(OneRound(plan), db, Config{Ctx: ctx}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := Execute(OneRound(plan), db, Config{Ctx: context.Background()}); err != nil {
		t.Fatalf("live context errored: %v", err)
	}
}

// TestRunPipelineCanceledBetweenRounds: cancellation fired after stage 1
// stops the pipeline at the next round boundary, returns ctx.Err(), and
// still releases the cluster back to the pool.
func TestRunPipelineCanceledBetweenRounds(t *testing.T) {
	db := testDB()
	var cp ClusterPool
	ctx, cancel := context.WithCancel(context.Background())
	stage := func(out string, cancelAfter bool) Stage {
		return Stage{
			Plan: &PhysicalPlan{Strategy: "test", Virtual: 4, Physical: 2, Router: modRouter(4)},
			Base: []string{"S"},
			LocalFragment: func(s *mpc.Server) *data.Relation {
				if cancelAfter {
					cancel()
				}
				f := s.Fragment("S")
				if f == nil || f.Size() == 0 {
					return nil
				}
				out := data.NewRelation(out, f.Arity, f.Domain)
				out.AppendColumns(f.Columns(), f.Size())
				return out
			},
			OutName: out, OutArity: 2, OutDomain: 100,
		}
	}
	pl := &Pipeline{
		Strategy: "test",
		Physical: 2,
		Stages:   []Stage{stage("i1", true), stage("i2", false)},
	}
	_, err := Execute(pl, db, Config{Clusters: &cp, Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := cp.Stats(); st.Puts != st.Gets {
		t.Fatalf("canceled pipeline leaked a cluster: %+v", st)
	}
	// Without cancellation the same pipeline completes.
	pl2 := &Pipeline{Strategy: "test", Physical: 2, Stages: []Stage{stage("i1", false), stage("i2", false)}}
	if _, err := Execute(pl2, db, Config{Clusters: &cp}); err != nil {
		t.Fatalf("uncanceled pipeline errored: %v", err)
	}
}

// TestRunRelationsScoped: a plan naming its relations routes only those —
// an unrelated relation in the database adds no load.
func TestRunRelationsScoped(t *testing.T) {
	db := testDB()
	filler := data.NewRelation("Filler", 2, 100)
	for i := int64(0); i < 64; i++ {
		filler.Add(i, i)
	}
	db.Put(filler)
	scoped := &PhysicalPlan{Strategy: "test", Virtual: 4, Physical: 2, Router: modRouter(4), Relations: []string{"S"}, Query: copyS}
	r1, err := Execute(OneRound(scoped), db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	clean := testDB()
	r2, _ := Execute(OneRound(scoped), clean, Config{})
	if r1.Rounds[0].LoadSummary != r2.Rounds[0].LoadSummary {
		t.Fatalf("scoped run loads %+v differ from filler-free %+v", r1.Rounds[0].LoadSummary, r2.Rounds[0].LoadSummary)
	}
}
