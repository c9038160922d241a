package bounds

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/stats"
)

// powerLawRelation returns up to m distinct tuples of the given arity over
// [0, n): column 0 takes value v with probability ∝ (v+1)^-s (s = 0 is
// uniform), the other columns are uniform.
func powerLawRelation(name string, arity, m int, n int64, s float64, seed int64) *data.Relation {
	rng := rand.New(rand.NewSource(seed))
	cdf := make([]float64, n)
	total := 0.0
	for v := range cdf {
		total += math.Pow(float64(v+1), -s)
		cdf[v] = total
	}
	r := data.NewRelation(name, arity, n)
	seen := make(map[string]bool)
	t := make(data.Tuple, arity)
	for i := 0; i < m; i++ {
		t[0] = int64(sort.SearchFloat64s(cdf, rng.Float64()*total))
		for a := 1; a < arity; a++ {
			t[a] = rng.Int63n(n)
		}
		if k := t.Key(); !seen[k] {
			seen[k] = true
			r.Add(t...)
		}
	}
	return r
}

// serialBestLower is BestLower's reduction written as the plain loop it
// replaced: one variable set after another, each on the shared pass.
func serialBestLower(q *query.Query, db *data.Database, p int) (float64, []int) {
	bitsM := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		bitsM[j] = float64(db.MustGet(a.Name).Bits())
	}
	best, _ := SimpleLower(q, bitsM, p)
	var winner []int
	ps := new(stats.Pass)
	for mask := 1; mask < 1<<q.NumVars(); mask++ {
		var vs []int
		for i := 0; i < q.NumVars(); i++ {
			if mask&(1<<i) != 0 {
				vs = append(vs, i)
			}
		}
		if b, _ := residualLower(q, query.NewVarSet(vs...), db, p, ps); b > best {
			best, winner = b, vs
		}
	}
	return best, winner
}

// TestBestLowerIndependentOfGOMAXPROCS runs BestLower over the catalog and
// a power-law sweep s = 0…2 serially and on four workers: the bound's bits
// and its description must not change, and both must match the serial
// per-variable-set loop.
func TestBestLowerIndependentOfGOMAXPROCS(t *testing.T) {
	const p = 16
	residualWins := 0
	for _, name := range query.CatalogNames() {
		q := query.Catalog()[name]
		for _, s := range []float64{0, 0.5, 1, 1.5, 2} {
			db := data.NewDatabase()
			for j, a := range q.Atoms {
				db.Put(powerLawRelation(a.Name, len(a.Vars), 600, 48, s, int64(31*j+1)))
			}
			want, winner := serialBestLower(q, db, p)
			wantDesc := "simple (x = ∅)"
			if winner != nil {
				residualWins++
				wantDesc = fmt.Sprintf("residual x=%v", winner)
			}
			var got [2]float64
			var descs [2]string
			for i, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got[i], descs[i] = BestLower(q, db, p, 0)
				runtime.GOMAXPROCS(prev)
			}
			if math.Float64bits(got[0]) != math.Float64bits(got[1]) || descs[0] != descs[1] {
				t.Errorf("%s s=%v: GOMAXPROCS 1 gives %v %q, 4 gives %v %q", name, s, got[0], descs[0], got[1], descs[1])
			}
			if math.Float64bits(got[1]) != math.Float64bits(want) || descs[1] != wantDesc {
				t.Errorf("%s s=%v: BestLower = %v %q, serial loop %v %q", name, s, got[1], descs[1], want, wantDesc)
			}
		}
	}
	if residualWins == 0 {
		t.Error("no instance was won by a residual bound; the sweep does not exercise the reduction")
	}
}

// TestEvalAllKeepsJobOrder puts one slow residual ahead of many fast ones,
// so workers finish out of claim order, and checks that every bound lands
// at its own job's index.
func TestEvalAllKeepsJobOrder(t *testing.T) {
	const p = 16
	q, z := query.Join2(), query.NewVarSet(2)
	heavy, light := data.NewDatabase(), data.NewDatabase()
	for j, a := range q.Atoms {
		heavy.Put(powerLawRelation(a.Name, 2, 40000, 1<<16, 0.5, int64(j+1)))
		light.Put(powerLawRelation(a.Name, 2, 8, 4, 1, int64(j+1)))
	}
	jobs := []*residual{newResidual(q, z, heavy, p, math.Inf(-1), new(stats.Pass))}
	for i := 0; i < 15; i++ {
		jobs = append(jobs, newResidual(q, z, light, p, math.Inf(-1), new(stats.Pass)))
	}
	want := make([]float64, len(jobs))
	for i, r := range jobs {
		want[i], _ = r.eval(p)
	}
	if want[0] == want[1] {
		t.Fatal("the slow and fast residuals have the same bound; the check would see nothing")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for run := 0; run < 5; run++ {
		for i, b := range evalAll(jobs, p) {
			if math.Float64bits(b) != math.Float64bits(want[i]) {
				t.Fatalf("run %d: job %d bound %v, want %v", run, i, b, want[i])
			}
		}
	}
}
