package wcoj

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/join"
	"repro/internal/packing"
	"repro/internal/query"
	"repro/internal/workload"
)

func TestTriangleBasic(t *testing.T) {
	q := query.Triangle()
	rels := map[string]*data.Relation{
		"S1": rel("S1", [][2]int64{{1, 2}, {4, 5}}),
		"S2": rel("S2", [][2]int64{{2, 3}, {5, 6}}),
		"S3": rel("S3", [][2]int64{{3, 1}, {6, 7}}),
	}
	out := Join(q, rels)
	want := []data.Tuple{{1, 2, 3}}
	if !join.EqualTupleSets(out, want) {
		t.Errorf("Join = %v, want %v", out, want)
	}
}

func rel(name string, rows [][2]int64) *data.Relation {
	r := data.NewRelation(name, 2, 1000)
	for _, row := range rows {
		r.Add(row[0], row[1])
	}
	return r
}

func TestEmptyRelation(t *testing.T) {
	q := query.Join2()
	rels := map[string]*data.Relation{
		"S1": rel("S1", [][2]int64{{1, 2}}),
		"S2": data.NewRelation("S2", 2, 1000),
	}
	if out := Join(q, rels); len(out) != 0 {
		t.Errorf("Join = %v", out)
	}
}

func TestMissingRelation(t *testing.T) {
	q := query.Join2()
	rels := map[string]*data.Relation{"S1": rel("S1", [][2]int64{{1, 2}})}
	if out := Join(q, rels); len(out) != 0 {
		t.Errorf("Join = %v", out)
	}
}

func TestAgainstHashJoinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	queries := []*query.Query{
		query.Join2(), query.Triangle(), query.Path(3), query.Star(2),
		query.Cycle(4), query.Cartesian(2),
	}
	for _, q := range queries {
		for trial := 0; trial < 6; trial++ {
			rels := make(map[string]*data.Relation)
			for _, a := range q.Atoms {
				r := data.NewRelation(a.Name, a.Arity(), 6)
				seen := map[string]bool{}
				for i := 0; i < 14; i++ {
					tu := make(data.Tuple, a.Arity())
					for j := range tu {
						tu[j] = int64(rng.Intn(6))
					}
					if !seen[tu.Key()] {
						seen[tu.Key()] = true
						r.Add(tu...)
					}
				}
				rels[a.Name] = r
			}
			fast := Join(q, rels)
			ref := join.Join(q, rels)
			if !join.EqualTupleSets(fast, ref) {
				t.Errorf("%s trial %d: wcoj %d vs hash join %d tuples",
					q.Name, trial, len(fast), len(ref))
			}
		}
	}
}

func TestAgainstRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		q := query.Random(rng, 4, 3)
		rels := make(map[string]*data.Relation)
		for _, a := range q.Atoms {
			r := data.NewRelation(a.Name, a.Arity(), 5)
			seen := map[string]bool{}
			for i := 0; i < 10; i++ {
				tu := make(data.Tuple, a.Arity())
				for j := range tu {
					tu[j] = int64(rng.Intn(5))
				}
				if !seen[tu.Key()] {
					seen[tu.Key()] = true
					r.Add(tu...)
				}
			}
			rels[a.Name] = r
		}
		got := Join(q, rels)
		want := join.NestedLoop(q, rels)
		if !join.EqualTupleSets(got, join.Dedup(want)) {
			t.Fatalf("trial %d %s: wcoj %d vs nested loop %d", trial, q, len(got), len(want))
		}
	}
}

func TestOutputWithinAGMBound(t *testing.T) {
	// Sanity link to §2.3: output never exceeds the AGM bound.
	q := query.Triangle()
	db := workload.ForQuery([]workload.AtomSpec{
		{Name: "S1", Arity: 2, M: 300, Domain: 40},
		{Name: "S2", Arity: 2, M: 300, Domain: 40},
		{Name: "S3", Arity: 2, M: 300, Domain: 40},
	}, 7)
	out := Join(q, db.Relations)
	bound := packing.AGMBound(q, []float64{300, 300, 300})
	if float64(len(out)) > bound {
		t.Errorf("output %d exceeds AGM bound %v", len(out), bound)
	}
}

// The classic separation: on a "star of hubs" instance the binary-join
// intermediate S1 ⋈ S2 is quadratic while the triangle output is small.
// wcoj must not materialize it. We can't observe allocations portably, so
// this test just confirms correctness on the adversarial instance at a
// size where a quadratic intermediate would be 10^6 tuples.
func TestHubInstanceStaysTractable(t *testing.T) {
	const hubDegree = 1000
	s1 := data.NewRelation("S1", 2, 1<<20)
	s2 := data.NewRelation("S2", 2, 1<<20)
	s3 := data.NewRelation("S3", 2, 1<<20)
	// S1: hub 0 → many a_i; S2: many a_i? No — classic: S1(x,y): x=0 to
	// all y; S2(y,z): all y to z=1; S3(z,x): only (1,0). Triangle count =
	// hubDegree... that makes output large. Instead: S2 maps all y to
	// z=1, S3 has nothing matching → output 0, but the S1⋈S2 intermediate
	// is hubDegree² pairs? No: S1⋈S2 on y gives hubDegree pairs (x=0, y,
	// z=1). Use S1(0, y_i) and S2(y_i, z_j) for a full bipartite block:
	// intermediate hubDegree·hubDegree, output bounded by S3.
	for i := int64(0); i < hubDegree; i++ {
		s1.Add(0, i)
	}
	for i := int64(0); i < hubDegree; i++ {
		s2.Add(i, 500000+i%3) // three z values
	}
	s3.Add(500000, 0) // one closing edge
	q := query.Triangle()
	out := Join(q, map[string]*data.Relation{"S1": s1, "S2": s2, "S3": s3})
	// Triangles: (0, y, 500000) for y with S2(y, 500000): y ≡ 0 mod 3.
	want := 0
	for i := int64(0); i < hubDegree; i++ {
		if 500000+i%3 == 500000 {
			want++
		}
	}
	if len(out) != want {
		t.Errorf("hub triangles = %d, want %d", len(out), want)
	}
}

// The double star is AGM-hard for binary join plans: every two-atom
// sub-join of C3 binds ≥ n² rows, whatever order a binary plan picks,
// while the triangle has only 3n+1 answers. Every restricted atom reaches
// the last variable with n+1 candidate rows of which one matches, so the
// deepest level's tuple probe decides every answer.
func TestDoubleStarMatchesHashJoin(t *testing.T) {
	q := query.Triangle()
	subJoins := []*query.Query{
		query.MustParse("q(x1,x2,x3) = S1(x1,x2), S2(x2,x3)"),
		query.MustParse("q(x1,x2,x3) = S2(x2,x3), S3(x3,x1)"),
		query.MustParse("q(x1,x2,x3) = S1(x1,x2), S3(x3,x1)"),
	}
	for _, n := range []int{200, 600} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rels := make(map[string]*data.Relation)
			for _, name := range []string{"S1", "S2", "S3"} {
				r := data.NewRelation(name, 2, 1<<20)
				for i := int64(1); i <= int64(n); i++ {
					r.Add(0, i)
					r.Add(i, 0)
				}
				r.Add(0, 0)
				rels[name] = r
			}
			got, want := Join(q, rels), join.Join(q, rels)
			if len(got) != 3*n+1 || !join.EqualTupleSets(got, want) {
				t.Fatalf("wcoj %d answers, hash join %d, want %d", len(got), len(want), 3*n+1)
			}
			for _, sub := range subJoins {
				if b := len(join.Join(sub, rels)); b < n*n {
					t.Errorf("%s binds %d rows, want ≥ n² = %d", sub, b, n*n)
				}
			}
		})
	}
}
