package query

import (
	"math/rand"
	"strings"
	"testing"
)

// TotalArity returns a = Σ_j a_j.
func (q *Query) TotalArity() int {
	total := 0
	for _, a := range q.Atoms {
		total += a.Arity()
	}
	return total
}

// VarIndex returns the index of the named variable, or -1.
func (q *Query) VarIndex(name string) int {
	for i, v := range q.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Intersect returns s ∩ other.
func (s VarSet) Intersect(other VarSet) VarSet {
	out := make(VarSet)
	for v := range s {
		if other[v] {
			out[v] = true
		}
	}
	return out
}

func TestParseBasic(t *testing.T) {
	q, err := Parse("C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "C3" || q.NumVars() != 3 || q.NumAtoms() != 3 {
		t.Errorf("parsed %v", q)
	}
	if q.TotalArity() != 6 {
		t.Errorf("TotalArity = %d, want 6", q.TotalArity())
	}
	if got := q.String(); got != "C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)" {
		t.Errorf("String = %q", got)
	}
}

func TestParseDatalogSeparator(t *testing.T) {
	q, err := Parse("q(x,y,z) :- S1(x,z), S2(y,z)")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumAtoms() != 2 || q.Atoms[0].Vars[1] != 2 {
		t.Errorf("parsed %v", q)
	}
}

func TestParseWhitespaceTolerant(t *testing.T) {
	if _, err := Parse("  q( x , y )  =  R( x , y ) "); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"no separator here",
		"q(x = R(x)",
		"q(x) = R(y)",         // body var not in head
		"q(x,x) = R(x)",       // duplicate head var
		"q(x,y) = R(x)",       // unused head var
		"q(x) = R(x), R(x)",   // self-join
		"q(x) = R(x,x)",       // repeated var in atom
		"q(x) = (x)",          // missing atom name
		"q(x) = R(x,)",        // empty var
		"q(1x) = R(1x)",       // bad identifier
		"q() = R()",           // no atoms with no vars is ok? head empty: validate
		"q(x) = ",             // empty body
		"q(x) = R(x), , S(x)", // empty atom
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			// "q() = R()" parses to a nullary query; that is actually valid
			// structurally, so skip it.
			if c == "q() = R()" {
				continue
			}
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("garbage")
}

func TestValidateOutOfRange(t *testing.T) {
	q := &Query{Name: "bad", Vars: []string{"x"}, Atoms: []Atom{{Name: "R", Vars: []int{5}}}}
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Errorf("err = %v", err)
	}
}

func TestAtomsWithVar(t *testing.T) {
	q := Triangle()
	got := q.AtomsWithVar(0) // x1 in S1 and S3
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("AtomsWithVar(0) = %v", got)
	}
}

func TestVarAndAtomIndex(t *testing.T) {
	q := Join2()
	if q.VarIndex("z") != 2 || q.VarIndex("nope") != -1 {
		t.Error("VarIndex wrong")
	}
	if q.AtomIndex("S2") != 1 || q.AtomIndex("nope") != -1 {
		t.Error("AtomIndex wrong")
	}
}

func TestConnected(t *testing.T) {
	if Cartesian(2).Connected() {
		t.Error("cartesian product should be disconnected")
	}
	if !Triangle().Connected() || !Join2().Connected() || !Path(3).Connected() {
		t.Error("connected queries misreported")
	}
	if !Cartesian(1).Connected() {
		t.Error("single atom is connected")
	}
}

func TestCatalogValidates(t *testing.T) {
	for name, q := range Catalog() {
		if err := q.Validate(); err != nil {
			t.Errorf("catalog query %s invalid: %v", name, err)
		}
	}
	names := CatalogNames()
	if len(names) != len(Catalog()) {
		t.Error("CatalogNames length mismatch")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("CatalogNames not sorted")
		}
	}
}

func TestConstructors(t *testing.T) {
	if got := Path(3).String(); got != "L3(x1,x2,x3,x4) = S1(x1,x2), S2(x2,x3), S3(x3,x4)" {
		t.Errorf("Path(3) = %q", got)
	}
	if got := Star(2).String(); got != "Star2(z,x1,x2) = S1(z,x1), S2(z,x2)" {
		t.Errorf("Star(2) = %q", got)
	}
	if got := Cycle(4).NumAtoms(); got != 4 {
		t.Errorf("Cycle(4) atoms = %d", got)
	}
	if got := Cartesian(3).TotalArity(); got != 3 {
		t.Errorf("Cartesian(3) arity = %d", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Cartesian(0) },
		func() { Path(0) },
		func() { Cycle(2) },
		func() { Star(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor did not panic on bad arg")
				}
			}()
			f()
		}()
	}
}

func TestResidualJoin2(t *testing.T) {
	// q(x,y,z) = S1(x,z), S2(y,z); residual on {z} is S1(x), S2(y).
	q := Join2()
	res, back := q.Residual(NewVarSet(2))
	if res.NumVars() != 2 {
		t.Fatalf("residual vars = %v", res.Vars)
	}
	if len(back) != 2 || back[0] != 0 || back[1] != 1 {
		t.Errorf("back-map = %v", back)
	}
	if res.Atoms[0].Arity() != 1 || res.Atoms[1].Arity() != 1 {
		t.Errorf("residual = %v", res)
	}
}

func TestResidualTriangle(t *testing.T) {
	// C3 residual on {x1}: S1(x2), S2(x2,x3), S3(x3) — Example 4.8.
	q := Triangle()
	res, _ := q.Residual(NewVarSet(0))
	if res.Atoms[0].Arity() != 1 || res.Atoms[1].Arity() != 2 || res.Atoms[2].Arity() != 1 {
		t.Errorf("residual arities wrong: %v", res)
	}
}

func TestResidualAllVars(t *testing.T) {
	q := Join2()
	res, back := q.Residual(NewVarSet(0, 1, 2))
	if res.NumVars() != 0 || len(back) != 0 {
		t.Errorf("residual of all vars should be empty-headed: %v", res)
	}
	for _, a := range res.Atoms {
		if a.Arity() != 0 {
			t.Errorf("atom %s should be nullary", a.Name)
		}
	}
}

func TestResidualSharesNoStorage(t *testing.T) {
	q := Join2()
	res, _ := q.Residual(NewVarSet(2))
	res.Atoms[0].Name = "MUT"
	if q.Atoms[0].Name != "S1" {
		t.Error("residual shares atom storage with original")
	}
}

func TestVarSet(t *testing.T) {
	s := NewVarSet(3, 1, 2)
	if !s.Contains(1) || s.Contains(0) {
		t.Error("Contains wrong")
	}
	got := s.Sorted()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Sorted = %v", got)
	}
	inter := s.Intersect(NewVarSet(2, 3, 9))
	if len(inter) != 2 || !inter.Contains(2) || !inter.Contains(3) {
		t.Errorf("Intersect = %v", inter)
	}
}

func TestHasVar(t *testing.T) {
	a := Atom{Name: "R", Vars: []int{0, 2}}
	if !a.HasVar(2) || a.HasVar(1) {
		t.Error("HasVar wrong")
	}
}

func TestRandomQueriesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q := Random(rng, 5, 4)
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: %v (query %s)", i, err, q)
		}
		if q.NumVars() > 5 {
			t.Fatalf("too many vars: %s", q)
		}
		for _, a := range q.Atoms {
			if a.Arity() > 3 {
				t.Fatalf("arity too large: %s", q)
			}
		}
	}
}

func TestRandomPanicsOnBadLimits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Random(rand.New(rand.NewSource(1)), 0, 1)
}

// Property: String/Parse round-trips every random query.
func TestStringParseRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		q := Random(rng, 5, 4)
		back, err := Parse(q.String())
		if err != nil {
			t.Fatalf("Parse(String()) failed for %s: %v", q, err)
		}
		if back.String() != q.String() {
			t.Fatalf("round trip changed query: %s vs %s", q, back)
		}
	}
}

// FuzzParse: Parse never panics, and any query it accepts prints, through
// String, a text that parses back to a query printing the same text.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)",
		"q(x,y,z) :- S1(x,z), S2(y,z)",
		"  q( x , y )  =  R( x , y ) ",
		"q() = R()",
		"q(x) = R(x), , S(x)",
		"q(a_1,b) = R(a_1), S(b,a_1)",
		"q(x) = R((x))",
		"q(é) :- R(é)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return
		}
		text := q.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) accepted; its String %q does not re-parse: %v", input, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q).String() = %q, but that re-parses to %q", input, text, got)
		}
	})
}
