package exp

import (
	"strings"
	"testing"
)

// Every experiment must pass its own internal checks at Quick scale. This
// is the repository's end-to-end gate: each runner regenerates one of the
// paper's tables/examples and asserts the predicted shape.
func TestAllExperimentsPassAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale")
	}
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			tb := r.Run(Quick)
			if !tb.OK {
				t.Errorf("%s failed its internal checks:\n%s", tb.ID, Render(tb))
			}
			if len(tb.Rows) == 0 {
				t.Errorf("%s produced no rows", tb.ID)
			}
			if tb.Claim == "" || tb.PaperRef == "" {
				t.Errorf("%s missing claim or paper reference", tb.ID)
			}
		})
	}
}

func TestRenderContainsAllCells(t *testing.T) {
	tb := Table{
		ID: "X", Title: "demo", PaperRef: "ref", Claim: "c",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"v1", "v2"}},
		Notes:   "note here",
		OK:      true,
	}
	out := Render(tb)
	for _, want := range []string{"X", "demo", "ref", "v1", "v2", "note here", "OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
}

func TestRenderFailedStatus(t *testing.T) {
	tb := Table{ID: "X", Columns: []string{"a"}, OK: false}
	if !strings.Contains(Render(tb), "CHECK FAILED") {
		t.Error("failed table should render CHECK FAILED")
	}
}

func TestMarkdown(t *testing.T) {
	tb := Table{
		ID: "E0", Title: "t", PaperRef: "r", Claim: "c",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		OK:      true,
	}
	md := Markdown(tb)
	for _, want := range []string{"### E0", "| a | b |", "| 1 | 2 |", "**PASS**"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q in:\n%s", want, md)
		}
	}
	tb.OK = false
	if !strings.Contains(Markdown(tb), "**FAIL**") {
		t.Error("missing FAIL status")
	}
}

func TestAllHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range All() {
		if seen[r.ID] {
			t.Errorf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != 16 {
		t.Errorf("expected 16 experiments, got %d", len(seen))
	}
}

// Structural invariant: every experiment's rows match its column count.
func TestAllTablesStructurallyConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, r := range All() {
		tb := r.Run(Quick)
		for ri, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s row %d has %d cells, want %d", tb.ID, ri, len(row), len(tb.Columns))
			}
		}
	}
}
