package lint

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// TestRunErrorIsFirstInPackageOrder fails the analyzer on two packages:
// Run must name the first of them every time, however its per-package
// workers are scheduled.
func TestRunErrorIsFirstInPackageOrder(t *testing.T) {
	failing := &analysis.Analyzer{
		Name: "failing",
		Run:  func(*analysis.Pass) error { return errors.New("cannot analyze") },
	}
	pkgs := []*load.Package{{ID: "repro/first"}, {ID: "repro/second"}}
	for i := 0; i < 100; i++ {
		_, err := Run(pkgs, []*analysis.Analyzer{failing})
		if err == nil || !strings.Contains(err.Error(), "on repro/first:") {
			t.Fatalf("run %d: error %v, want the failure on repro/first", i, err)
		}
	}
}
