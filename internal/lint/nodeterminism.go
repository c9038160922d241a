package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// NoDeterminismBreak enforces the determinism contract of the execution
// core (PRs 7/9): fault decisions, backoff jitter, and routing must be
// pure functions of seeds, tests must stay sleep-free so -race runs are
// schedule-independent rather than timing-dependent, and goroutines start
// only in internal/par.
var NoDeterminismBreak = &analysis.Analyzer{
	Name: "nodeterminismbreak",
	Doc: `forbid wall-clock and global-randomness calls in the deterministic core

Inside repro/internal/mpc, repro/internal/exec, and repro/internal/core:
time.Now, time.Sleep, time.Since, and time.Until are forbidden (the
injectable Retry.Sleep default is the sanctioned escape hatch, waived with
//skewlint:allow nodeterminismbreak), and math/rand may only be used
through explicitly seeded sources (rand.New(rand.NewSource(seed))) — the
global functions draw from process-global state and break seed replay.
In every package, _test.go files must not call time.Sleep: the test suite
is sleep-free by construction (tests that need delay inject hooks and
block on channels). Outside _test.go files, repro/internal/par is the one
package with go statements: every other fan-out runs on par.Each or
par.For, which bound the workers at GOMAXPROCS.`,
	Run: runNoDeterminismBreak,
}

// seededConstructors are the math/rand entry points that take or build an
// explicit source and therefore stay deterministic under a caller seed.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes a *Rand
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runNoDeterminismBreak(pass *analysis.Pass) error {
	core := enginePaths[pass.Pkg.Path()]
	// A test variant's path carries a " [p.test]" suffix.
	par := strings.Fields(pass.Pkg.Path())[0] == "repro/internal/par"
	for i, file := range pass.Files {
		inTest := i < len(pass.IsTest) && pass.IsTest[i]
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !inTest && !par {
				pass.Reportf(g.Pos(), "go statement outside internal/par: fan out with par.Each or par.For")
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkg, name := fn.Pkg().Path(), fn.Name()
			switch {
			case pkg == "time" && name == "Sleep":
				if inTest {
					pass.Reportf(call.Pos(), "time.Sleep in a test: the suite is sleep-free — inject a hook (Retry.Sleep, Faults.OnStraggle) and block on a channel instead")
				} else if core {
					pass.Reportf(call.Pos(), "time.Sleep in the deterministic core: waits must flow through the injectable Retry.Sleep hook")
				}
			case core && !inTest && pkg == "time" && (name == "Now" || name == "Since" || name == "Until"):
				pass.Reportf(call.Pos(), "time.%s in the deterministic core: decisions must be pure functions of seeds, not the wall clock", name)
			case core && (pkg == "math/rand" || pkg == "math/rand/v2") && !seededConstructors[name]:
				if fn.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(call.Pos(), "global %s.%s: the deterministic core must draw randomness from an explicitly seeded source (rand.New(rand.NewSource(seed)))", pkg, name)
				}
			}
			return true
		})
	}
	return nil
}
