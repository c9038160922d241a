package query

import (
	"fmt"
	"sort"
)

// This file provides constructors for the query families the paper analyzes:
// cartesian products (§1), the two-relation join (Examples 3.3, 4.8), path
// queries L_ℓ (§2.2), cycles C_k including the triangle C3 (Eq. 4), and star
// queries.

// Cartesian returns the u-way cartesian product
// q(x1..xu) = S1(x1), ..., Su(xu).
func Cartesian(u int) *Query {
	if u < 1 {
		panic("query: Cartesian needs u >= 1")
	}
	q := &Query{Name: fmt.Sprintf("Cart%d", u)}
	for i := 0; i < u; i++ {
		q.Vars = append(q.Vars, fmt.Sprintf("x%d", i+1))
		q.Atoms = append(q.Atoms, Atom{Name: fmt.Sprintf("S%d", i+1), Vars: []int{i}})
	}
	return q
}

// Join2 returns q(x,y,z) = S1(x,z), S2(y,z) — the running example of
// Example 3.3 and §4.1.
func Join2() *Query {
	return &Query{
		Name: "Join2",
		Vars: []string{"x", "y", "z"},
		Atoms: []Atom{
			{Name: "S1", Vars: []int{0, 2}},
			{Name: "S2", Vars: []int{1, 2}},
		},
	}
}

// Path returns the length-ℓ path (chain) query
// L_ℓ(x1..x_{ℓ+1}) = S1(x1,x2), S2(x2,x3), ..., S_ℓ(x_ℓ,x_{ℓ+1}).
func Path(l int) *Query {
	if l < 1 {
		panic("query: Path needs l >= 1")
	}
	q := &Query{Name: fmt.Sprintf("L%d", l)}
	for i := 0; i <= l; i++ {
		q.Vars = append(q.Vars, fmt.Sprintf("x%d", i+1))
	}
	for i := 0; i < l; i++ {
		q.Atoms = append(q.Atoms, Atom{Name: fmt.Sprintf("S%d", i+1), Vars: []int{i, i + 1}})
	}
	return q
}

// Cycle returns the k-cycle query
// C_k(x1..xk) = S1(x1,x2), ..., S_{k-1}(x_{k-1},x_k), S_k(x_k,x1).
func Cycle(k int) *Query {
	if k < 3 {
		panic("query: Cycle needs k >= 3")
	}
	q := &Query{Name: fmt.Sprintf("C%d", k)}
	for i := 0; i < k; i++ {
		q.Vars = append(q.Vars, fmt.Sprintf("x%d", i+1))
	}
	for i := 0; i < k; i++ {
		q.Atoms = append(q.Atoms, Atom{Name: fmt.Sprintf("S%d", i+1), Vars: []int{i, (i + 1) % k}})
	}
	return q
}

// Triangle returns C3(x1,x2,x3) = S1(x1,x2), S2(x2,x3), S3(x3,x1) — Eq. (4).
func Triangle() *Query { return Cycle(3) }

// Star returns the star query with r leaves:
// Star_r(z,x1..xr) = S1(z,x1), ..., Sr(z,xr).
func Star(r int) *Query {
	if r < 1 {
		panic("query: Star needs r >= 1")
	}
	q := &Query{Name: fmt.Sprintf("Star%d", r)}
	q.Vars = append(q.Vars, "z")
	for i := 0; i < r; i++ {
		q.Vars = append(q.Vars, fmt.Sprintf("x%d", i+1))
		q.Atoms = append(q.Atoms, Atom{Name: fmt.Sprintf("S%d", i+1), Vars: []int{0, i + 1}})
	}
	return q
}

// Catalog returns a named suite of benchmark queries used across
// experiments and tests.
func Catalog() map[string]*Query {
	return map[string]*Query{
		"cart2":  Cartesian(2),
		"cart3":  Cartesian(3),
		"join2":  Join2(),
		"L3":     Path(3),
		"C3":     Triangle(),
		"C4":     Cycle(4),
		"star3":  Star(3),
		"binary": MustParse("q(x,y) = R(x,y)"),
	}
}

// CatalogNames returns the catalog keys in sorted order.
func CatalogNames() []string {
	c := Catalog()
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
