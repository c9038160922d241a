// Package exp is the experiment harness: one runner per table or worked
// example in the paper's evaluation (E1–E8, E11, E12) plus the ablations
// (A1–A6), as All lists them. Each runner returns a Table comparing the
// paper's predicted shape against measured values from the simulator;
// cmd/skewbench prints them. The paper's exponents in p are fitted-slope
// tests in the packages that own them (internal/hypercube, internal/skew,
// internal/rounds).
package exp

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: a claim from the paper and the
// measured rows that validate (or refute) it.
type Table struct {
	ID       string
	Title    string
	PaperRef string
	Claim    string
	Columns  []string
	Rows     [][]string
	Notes    string
	// OK aggregates the per-row pass/fail checks the runner performed.
	OK bool
}

// Scale selects experiment sizes.
type Scale int

// Scales: Quick keeps everything test-suite fast; Full is what
// cmd/skewbench and the benchmarks use.
const (
	Quick Scale = iota
	Full
)

// Render formats a table as aligned ASCII.
func Render(t Table) string {
	var b strings.Builder
	status := "OK"
	if !t.OK {
		status = "CHECK FAILED"
	}
	fmt.Fprintf(&b, "=== %s: %s [%s]\n", t.ID, t.Title, status)
	fmt.Fprintf(&b, "    paper: %s\n", t.PaperRef)
	fmt.Fprintf(&b, "    claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		b.WriteString("    ")
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "    note: %s\n", t.Notes)
	}
	return b.String()
}

// Markdown formats a table as GitHub-flavored markdown (skewbench -markdown).
func Markdown(t Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Paper:* %s. *Claim:* %s\n\n", t.PaperRef, t.Claim)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*Note:* %s\n", t.Notes)
	}
	status := "**PASS**"
	if !t.OK {
		status = "**FAIL**"
	}
	fmt.Fprintf(&b, "\nStatus: %s\n", status)
	return b.String()
}

// Runner is one experiment entry point.
type Runner struct {
	ID  string
	Run func(s Scale) Table
}

// All returns every experiment and ablation in order.
func All() []Runner {
	return []Runner{
		{"E1", E1ExampleJoinShares},
		{"E2", E2TrianglePackingTable},
		{"E3", E3MatchingBounds},
		{"E4", E4HashingLemma},
		{"E5", E5SkewJoin},
		{"E6", E6ResidualBounds},
		{"E7", E7BinCombGeneral},
		{"E8", E8ReplicationRate},
		{"E11", E11KnowledgeBound},
		{"E12", E12RoundsTradeoff},
		{"A1", A1ShareRounding},
		{"A2", A2ShareOptimizers},
		{"A3", A3Threshold},
		{"A4", A4OverweightFactor},
		{"A5", A5SamplingStats},
		{"A6", A6LocalJoinAlgorithm},
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func fi(v int64) string   { return fmt.Sprintf("%d", v) }
func fk(v float64) string { return fmt.Sprintf("%.3g", v) }
