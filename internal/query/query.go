// Package query models full conjunctive queries without self-joins — the
// query class of Beame–Koutris–Suciu (PODS 2014) — together with their
// hypergraphs and the residual queries q_x used by the skew lower bounds.
package query

import (
	"fmt"
	"sort"
	"strings"
)

// Atom is one relational atom S_j(x̄_j) in a query body. Vars holds indices
// into the owning Query's variable list; each variable appears at most once
// per atom (the standard assumption for the HyperCube analysis).
type Atom struct {
	Name string
	Vars []int
}

// Arity returns the number of variables of the atom.
func (a Atom) Arity() int { return len(a.Vars) }

// HasVar reports whether variable index v occurs in the atom.
func (a Atom) HasVar(v int) bool {
	for _, x := range a.Vars {
		if x == v {
			return true
		}
	}
	return false
}

// Query is a full conjunctive query q(x_1..x_k) = S_1(x̄_1), ..., S_ℓ(x̄_ℓ):
// every variable appears in the head and no relation name repeats.
type Query struct {
	Name  string
	Vars  []string // the k variables, in head order
	Atoms []Atom   // the ℓ atoms
}

// NumVars returns k, the number of variables.
func (q *Query) NumVars() int { return len(q.Vars) }

// NumAtoms returns ℓ, the number of atoms.
func (q *Query) NumAtoms() int { return len(q.Atoms) }

// AtomNames returns the relation name of every atom, in body order
// (distinct — the query model has no self-joins). Planners use it to
// scope physical plans to exactly the relations they route.
func (q *Query) AtomNames() []string {
	names := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		names[i] = a.Name
	}
	return names
}

// AtomsWithVar returns the indices of atoms containing variable v.
func (q *Query) AtomsWithVar(v int) []int {
	var out []int
	for j, a := range q.Atoms {
		if a.HasVar(v) {
			out = append(out, j)
		}
	}
	return out
}

// AtomIndex returns the index of the named atom, or -1.
func (q *Query) AtomIndex(name string) int {
	for j, a := range q.Atoms {
		if a.Name == name {
			return j
		}
	}
	return -1
}

// Validate checks the structural invariants: at least one atom, distinct
// atom names (no self-joins), every variable used by some atom, variable
// indices in range, and no repeated variable within an atom.
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("query %s: no atoms", q.Name)
	}
	names := make(map[string]bool)
	used := make([]bool, len(q.Vars))
	for _, a := range q.Atoms {
		if a.Name == "" {
			return fmt.Errorf("query %s: atom with empty name", q.Name)
		}
		if names[a.Name] {
			return fmt.Errorf("query %s: self-join on %s not supported", q.Name, a.Name)
		}
		names[a.Name] = true
		seen := make(map[int]bool)
		for _, v := range a.Vars {
			if v < 0 || v >= len(q.Vars) {
				return fmt.Errorf("query %s: atom %s has out-of-range variable %d", q.Name, a.Name, v)
			}
			if seen[v] {
				return fmt.Errorf("query %s: atom %s repeats variable %s", q.Name, a.Name, q.Vars[v])
			}
			seen[v] = true
			used[v] = true
		}
	}
	for i, u := range used {
		if !u {
			return fmt.Errorf("query %s: head variable %s unused in body", q.Name, q.Vars[i])
		}
	}
	return nil
}

// String renders the query in the parseable syntax, e.g.
// "C3(x,y,z) = S1(x,y), S2(y,z), S3(z,x)".
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.Name)
	b.WriteByte('(')
	b.WriteString(strings.Join(q.Vars, ","))
	b.WriteString(") = ")
	for j, a := range q.Atoms {
		if j > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte('(')
		vs := make([]string, len(a.Vars))
		for i, v := range a.Vars {
			vs[i] = q.Vars[v]
		}
		b.WriteString(strings.Join(vs, ","))
		b.WriteByte(')')
	}
	return b.String()
}

// Connected reports whether the query hypergraph is connected (atoms as
// hyperedges over variables). Cartesian products are disconnected.
func (q *Query) Connected() bool {
	if len(q.Atoms) <= 1 {
		return true
	}
	// Union-find over atoms through shared variables.
	parent := make([]int, len(q.Atoms))
	for j := range parent {
		parent[j] = j
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for v := range q.Vars {
		js := q.AtomsWithVar(v)
		for i := 1; i < len(js); i++ {
			parent[find(js[i])] = find(js[0])
		}
	}
	root := find(0)
	for j := range q.Atoms {
		if find(j) != root {
			return false
		}
	}
	return true
}

// VarSet is a set of variable indices, used for the x in residual queries
// and bin combinations.
type VarSet map[int]bool

// NewVarSet builds a set from indices.
func NewVarSet(vars ...int) VarSet {
	s := make(VarSet, len(vars))
	for _, v := range vars {
		s[v] = true
	}
	return s
}

// Sorted returns the members in increasing order.
func (s VarSet) Sorted() []int {
	out := make([]int, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Contains reports membership.
func (s VarSet) Contains(v int) bool { return s[v] }

// Residual returns the residual query q_x: the query obtained by deleting
// the variables in x from every atom and from the head (§4.3 of the paper).
// Atoms may end up with reduced arity, possibly zero. The returned query
// shares no storage with q. The second return value maps new variable
// indices back to q's variable indices.
func (q *Query) Residual(x VarSet) (*Query, []int) {
	var keepVars []int
	newIdx := make([]int, len(q.Vars))
	for i := range q.Vars {
		if x.Contains(i) {
			newIdx[i] = -1
			continue
		}
		newIdx[i] = len(keepVars)
		keepVars = append(keepVars, i)
	}
	res := &Query{Name: q.Name + "_res"}
	for _, old := range keepVars {
		res.Vars = append(res.Vars, q.Vars[old])
	}
	for _, a := range q.Atoms {
		na := Atom{Name: a.Name}
		for _, v := range a.Vars {
			if newIdx[v] >= 0 {
				na.Vars = append(na.Vars, newIdx[v])
			}
		}
		res.Atoms = append(res.Atoms, na)
	}
	return res, keepVars
}
