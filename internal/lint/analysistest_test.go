package lint

// The analysistest harness: each testdata corpus is parsed from source,
// type-checked under a chosen import path (so path-scoped analyzers see
// the scope they'd see in production), and run through the same lint.Run
// pipeline cmd/skewlint uses — //skewlint:allow suppression included.
// Expectations are `// want "regex"` comments on the flagged lines,
// mirroring x/tools' analysistest convention.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// repoRoot is the module root relative to this package's directory; the
// importer resolves testdata imports (stdlib and real engine packages)
// from go list export data rooted there.
const repoRoot = "../.."

// loadTestdata parses and type-checks testdata/<dir> as though its import
// path were asPath.
func loadTestdata(t *testing.T, dir, asPath string) *load.Package {
	t.Helper()
	full := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatalf("no corpus files in %s", full)
	}

	fset := token.NewFileSet()
	pkg := &load.Package{ID: asPath, PkgPath: asPath, Dir: full, Fset: fset}
	importSet := map[string]bool{}
	for _, name := range names {
		f, perr := parser.ParseFile(fset, filepath.Join(full, name), nil, parser.ParseComments)
		if perr != nil {
			t.Fatal(perr)
		}
		pkg.Syntax = append(pkg.Syntax, f)
		pkg.IsTest = append(pkg.IsTest, strings.HasSuffix(name, "_test.go"))
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				importSet[path] = true
			}
		}
	}
	var imports []string
	for path := range importSet {
		imports = append(imports, path)
	}
	sort.Strings(imports)

	imp, err := load.Importer(repoRoot, fset, imports...)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(asPath, fset, pkg.Syntax, info)
	if err != nil {
		t.Fatalf("type checking %s: %v", full, err)
	}
	pkg.Types = tpkg
	pkg.TypesInfo = info
	return pkg
}

// want is one expectation parsed from a `// want "regex"` comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantQuoted = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// collectWants scans the corpus comments for expectations.
func collectWants(t *testing.T, pkg *load.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range wantQuoted.FindAllString(rest, -1) {
					var pat string
					if strings.HasPrefix(q, "`") {
						pat = strings.Trim(q, "`")
					} else if u, err := strconv.Unquote(q); err == nil {
						pat = u
					} else {
						t.Fatalf("%s: bad want pattern %s", pos, q)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// runGolden checks one analyzer against one corpus.
func runGolden(t *testing.T, dir, asPath string, a *analysis.Analyzer) {
	t.Helper()
	pkg := loadTestdata(t, dir, asPath)
	findings, err := Run([]*load.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)

	index := map[string][]*want{}
	for _, w := range wants {
		key := fmt.Sprintf("%s:%d", w.file, w.line)
		index[key] = append(index[key], w)
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, w := range index[key] {
			if w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no %s finding matched want %q", w.file, w.line, a.Name, w.re)
		}
	}
}

// TestAnalyzersGolden runs every analyzer over its corpus: at least one
// true positive, at least one allow-directive or idiom negative each.
func TestAnalyzersGolden(t *testing.T) {
	cases := []struct {
		dir      string
		asPath   string
		analyzer *analysis.Analyzer
	}{
		{"nodeterminism", "repro/internal/mpc", NoDeterminismBreak},
		{"noalloc", "repro/internal/hot", NoAlloc},
		{"ctxflow", "repro/internal/core", CtxFlow},
		{"errwrap", "repro/internal/taxo", ErrWrap},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			runGolden(t, tc.dir, tc.asPath, tc.analyzer)
		})
	}
}

// TestNoDeterminismOutOfScope re-checks core-forbidden calls under a
// non-core import path, and a go statement under internal/par's test
// variant: the path scoping must silence them all.
func TestNoDeterminismOutOfScope(t *testing.T) {
	for _, tc := range []struct{ dir, asPath string }{
		{"nodeterminism_outofscope", "repro/internal/stats"},
		{"nodeterminism_par", "repro/internal/par [repro/internal/par.test]"},
	} {
		pkg := loadTestdata(t, tc.dir, tc.asPath)
		findings, err := Run([]*load.Package{pkg}, []*analysis.Analyzer{NoDeterminismBreak})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range findings {
			t.Errorf("out-of-scope corpus produced a finding: %s", f)
		}
	}
}
