package bounds

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/query"
	"repro/internal/stats"
)

// checkResidualCaps evaluates every variable set's residual, pruned or
// not, and checks that its cap bounds it; then that BestLower, which
// prunes, agrees bit for bit with the serial loop, which does not. It
// returns how many residuals it checked and how many of them BestLower
// prunes.
func checkResidualCaps(t *testing.T, name string, q *query.Query, db *data.Database, p int) (checked, pruned int) {
	t.Helper()
	bitsM := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		bitsM[j] = float64(db.MustGet(a.Name).Bits())
	}
	simple, _ := SimpleLower(q, bitsM, p)
	ps := new(stats.Pass)
	defer ps.Release()
	for mask := 1; mask < 1<<q.NumVars(); mask++ {
		x := query.NewVarSet()
		for i := 0; i < q.NumVars(); i++ {
			if mask&(1<<i) != 0 {
				x[i] = true
			}
		}
		r := newResidual(q, x, db, p, math.Inf(-1), ps)
		if r == nil {
			continue
		}
		c := r.cap(p)
		if b, _ := r.eval(p); b > c*(1+1e-9) {
			t.Errorf("%s p=%d x=%v: L_x = %v exceeds its cap %v", name, p, x.Sorted(), b, c)
		}
		checked++
		if c*(1+1e-9) <= simple {
			pruned++
		}
	}
	want, winner := serialBestLower(q, db, p)
	wantDesc := "simple (x = ∅)"
	if winner != nil {
		wantDesc = fmt.Sprintf("residual x=%v", winner)
	}
	if got, desc := BestLower(q, db, p, 0); math.Float64bits(got) != math.Float64bits(want) || desc != wantDesc {
		t.Errorf("%s p=%d: BestLower = %v %q, unpruned %v %q", name, p, got, desc, want, wantDesc)
	}
	return checked, pruned
}

// TestResidualCapBoundsEval holds every residual's cap above its bound
// over the catalog, a power-law sweep and three server counts, and
// BestLower's pruned reduction to the unpruned one.
func TestResidualCapBoundsEval(t *testing.T) {
	checked, pruned := 0, 0
	for _, name := range query.CatalogNames() {
		q := query.Catalog()[name]
		for _, s := range []float64{0, 1.1, 1.5, 2} {
			db := data.NewDatabase()
			for j, a := range q.Atoms {
				db.Put(powerLawRelation(a.Name, len(a.Vars), 500, 40, s, int64(17*j+3)))
			}
			for _, p := range []int{4, 64, 1024} {
				c, n := checkResidualCaps(t, fmt.Sprintf("%s s=%v", name, s), q, db, p)
				checked += c
				pruned += n
			}
		}
	}
	t.Logf("%d residuals checked, %d of them pruned", checked, pruned)
	if pruned == 0 || pruned == checked {
		t.Errorf("%d of %d residuals pruned; the sweep must exercise both sides of the cap", pruned, checked)
	}
}

// FuzzResidualCap checks the same invariant on fuzzed small relations: a
// catalog query, a server count, and tuples over a domain of six values,
// dealt to the atoms in turn.
func FuzzResidualCap(f *testing.F) {
	f.Add(uint8(4), uint16(16), []byte{1, 2, 2, 3, 3, 1, 1, 1, 2, 1, 1, 3, 4, 5, 0, 0, 2, 2})
	f.Add(uint8(0), uint16(3), []byte{0, 0, 0, 1, 0, 2, 5, 5})
	f.Add(uint8(6), uint16(900), []byte{})
	f.Fuzz(func(t *testing.T, qByte uint8, pWord uint16, raw []byte) {
		names := query.CatalogNames()
		q := query.Catalog()[names[int(qByte)%len(names)]]
		rels := make([]*data.Relation, q.NumAtoms())
		for j, a := range q.Atoms {
			rels[j] = data.NewRelation(a.Name, len(a.Vars), 6)
		}
		for i, j := 0, 0; ; j = (j + 1) % len(rels) {
			arity := rels[j].Arity
			if i+arity > len(raw) {
				break
			}
			vals := make([]int64, arity)
			for a := range vals {
				vals[a] = int64(raw[i+a] % 6)
			}
			rels[j].Add(vals...)
			i += arity
		}
		db := data.NewDatabase()
		for _, r := range rels {
			db.Put(r)
		}
		checkResidualCaps(t, "fuzz", q, db, 1+int(pWord%2048))
	})
}

// TestPublicBoundsRejectInvalidQuery passes a self-join, which Validate
// rejects, to the bounds that validate: each must panic with its own
// message, not crash on an index or answer from a misread relation.
func TestPublicBoundsRejectInvalidQuery(t *testing.T) {
	q := &query.Query{Name: "self", Vars: []string{"x", "y", "z"}, Atoms: []query.Atom{
		{Name: "R", Vars: []int{0, 1}}, {Name: "R", Vars: []int{1, 2}},
	}}
	db := data.NewDatabase()
	db.Put(powerLawRelation("R", 2, 50, 8, 0, 1))
	calls := map[string]func(){
		"BestLower":     func() { BestLower(q, db, 4, 0) },
		"ResidualLower": func() { ResidualLower(q, query.NewVarSet(0, 2), db, 4) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				v := recover()
				if _, crashed := v.(runtime.Error); crashed || !strings.HasPrefix(fmt.Sprint(v), "bounds: invalid query: ") {
					t.Errorf("%s on a self-join: panic value %v, want a bounds: invalid query panic", name, v)
				}
			}()
			call()
		}()
	}
}
