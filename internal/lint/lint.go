// Package lint is skewlint: the static-analysis suite that turns this
// repository's load-bearing conventions — deterministic seeded randomness,
// sleep-free tests, zero-allocation routing hot paths, context propagation,
// and the typed error taxonomy — into mechanically enforced invariants. Each
// invariant is one analyzer on the framework in internal/lint/analysis;
// cmd/skewlint is the multichecker that runs them over `go list` patterns.
// See DESIGN.md, "Static analysis".
//
// Suppression is explicit and audited: a `//skewlint:allow <analyzer>
// [reason]` comment on (or directly above) the offending line waives that
// analyzer there, and `//skewlint:noalloc` in a function's doc comment
// opts the function into the allocation checker.
package lint

import (
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
	"repro/internal/par"
)

// Analyzers returns the four invariant analyzers — everything cmd/skewlint
// runs — in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NoDeterminismBreak,
		NoAlloc,
		CtxFlow,
		ErrWrap,
	}
}

// ByName resolves a comma-separated analyzer list; unknown names error.
func ByName(names string) ([]*analysis.Analyzer, error) {
	index := map[string]*analysis.Analyzer{}
	for _, a := range Analyzers() {
		index[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Finding is one resolved diagnostic: a concrete file position plus the
// analyzer that produced it.
type Finding struct {
	Pos      token.Position
	Category string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Category, f.Message)
}

// Run executes the analyzers over the packages and returns the surviving
// findings: deduplicated (a file shared by a package and its test variant
// is analyzed twice) and with //skewlint:allow suppressions applied,
// sorted by position. When analyzers fail, the error is the first failing
// package's, in pkgs order.
func Run(pkgs []*load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	found := make([][]Finding, len(pkgs))
	errs := make([]error, len(pkgs))
	par.Each(len(pkgs), func(i int) {
		pkg := pkgs[i]
		allow := allowDirectives(pkg)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				IsTest:    pkg.IsTest,
			}
			pass.Report = func(d analysis.Diagnostic) {
				if pos := pkg.Fset.Position(d.Pos); !allow.allows(a.Name, pos) {
					found[i] = append(found[i], Finding{Pos: pos, Category: a.Name, Message: d.Message})
				}
			}
			if err := a.Run(pass); err != nil {
				errs[i] = fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ID, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	seen := map[Finding]bool{}
	var out []Finding
	for _, fs := range found {
		for _, f := range fs {
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Category < b.Category
	})
	return out, nil
}

// allowSet records, per file and line, the analyzers a //skewlint:allow
// directive waives.
type allowSet map[string]map[int]map[string]bool

// allows reports whether the named analyzer is waived at pos.
func (s allowSet) allows(name string, pos token.Position) bool {
	lines := s[pos.Filename]
	if lines == nil {
		return false
	}
	return lines[pos.Line][name] || lines[pos.Line]["all"]
}

// allowDirectives scans a package's comments for //skewlint:allow
// directives. A directive suppresses findings on its own line; when the
// directive is the only thing on its line it suppresses the next line
// instead (the conventional "annotation above the statement" placement).
func allowDirectives(pkg *load.Package) allowSet {
	set := allowSet{}
	srcCache := map[string][]byte{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				if ownLine(srcCache, pos) {
					line++
				}
				file := set[pos.Filename]
				if file == nil {
					file = map[int]map[string]bool{}
					set[pos.Filename] = file
				}
				byName := file[line]
				if byName == nil {
					byName = map[string]bool{}
					file[line] = byName
				}
				for _, n := range names {
					byName[n] = true
				}
			}
		}
	}
	return set
}

// parseAllow extracts analyzer names from a //skewlint:allow directive
// comment; everything after the names list (a rationale) is ignored.
// Accepted forms:
//
//	//skewlint:allow noalloc
//	//skewlint:allow noalloc,ctxflow -- cold path, runs once per batch
func parseAllow(text string) ([]string, bool) {
	const prefix = "//skewlint:allow"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if rest == "" {
		return []string{"all"}, true
	}
	fields := strings.Fields(rest)
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return []string{"all"}, true
	}
	return names, true
}

// ownLine reports whether only whitespace precedes the comment at pos on
// its line (so the directive governs the following line, not its own).
func ownLine(cache map[string][]byte, pos token.Position) bool {
	src, ok := cache[pos.Filename]
	if !ok {
		src, _ = os.ReadFile(pos.Filename)
		cache[pos.Filename] = src
	}
	if src == nil {
		return false
	}
	// pos.Offset is the comment start; scan back to the line start.
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
		default:
			return false
		}
	}
	return true
}

// LoadAndRun is the one-call driver cmd/skewlint and the tests share:
// load patterns from dir, run the analyzers, return findings.
func LoadAndRun(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			return nil, fmt.Errorf("lint: type checking %s: %w", p.ID, terr)
		}
	}
	return Run(pkgs, analyzers)
}
