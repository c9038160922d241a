// Package analysis is a dependency-free reimplementation of the core API
// of golang.org/x/tools/go/analysis, shaped so skewlint's analyzers read
// (and would port) exactly like upstream ones. The build environment bakes
// in only the Go toolchain — no module proxy, no vendored x/tools — so the
// framework the analyzers run on lives here: an Analyzer is a named Run
// function over a Pass, a Pass carries one type-checked package, and
// diagnostics are plain positions plus messages. Package loading (the part
// of x/tools this package does not mirror) is internal/lint/load, built on
// `go list -export` and the standard library's gc export-data importer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker. Unlike upstream there is no
// fact or dependency machinery: every skewlint analyzer is a pure function
// of a single package, which keeps the driver embarrassingly parallel and
// `go vet -vettool` integration stateless.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //skewlint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces; the first
	// line is the summary shown by `skewlint -list`.
	Doc string
	// Run inspects one package and reports findings through pass.Report.
	// The error return is for operational failures (the package could not
	// be analyzed), not for findings.
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass is one (analyzer, package) unit of work. All fields are read-only
// for the Run function.
type Pass struct {
	Analyzer *Analyzer

	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// IsTest reports, per file index, whether Files[i] came from a
	// _test.go file (either the in-package test variant or an external
	// _test package).
	IsTest []bool

	// Report delivers one diagnostic. The driver installs it; analyzers
	// should use Reportf for convenience.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position in the pass's FileSet plus a
// human-readable message. Category is the analyzer name (filled in by the
// driver) so multichecker output and directive suppression key off it.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Category string
}
