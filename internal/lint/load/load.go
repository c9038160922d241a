// Package load turns `go list` package patterns into fully type-checked
// packages using nothing beyond the standard library and the Go toolchain
// already on the machine. It is the loading half that skewlint's analysis
// framework (internal/lint/analysis) does not reimplement from x/tools:
//
//   - `go list -e -json -deps -test -export` enumerates the pattern's
//     packages, their test variants, and every dependency, and — the key
//     trick — makes the toolchain drop each dependency's gc export data
//     into the build cache and report the file path (offline, no proxy).
//   - Target packages are parsed from source (comments retained, so
//     //skewlint: directives survive) and type-checked with the standard
//     importer.ForCompiler("gc") reading dependencies' export data through
//     a lookup built from the go list output.
//
// The result carries complete types.Info for real analysis, including
// in-package and external test variants (`pkg [pkg.test]`, `pkg_test
// [pkg.test]`), which is how the sleep-free-test invariant gets checked
// with type information rather than text matching.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/par"
)

// Package is one type-checked target package.
type Package struct {
	// ID is go list's ImportPath for the variant, e.g.
	// "repro/internal/mpc [repro/internal/mpc.test]" for the in-package
	// test variant.
	ID string
	// PkgPath is the import path with any test-variant suffix stripped —
	// the path analyzers scope on.
	PkgPath string
	Dir     string

	Fset   *token.FileSet
	Syntax []*ast.File
	// IsTest[i] reports whether Syntax[i] came from a _test.go file.
	IsTest []bool

	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors holds type-checking failures (the package is still
	// returned with whatever information was recovered).
	TypeErrors []error
}

// listPkg is the subset of go list -json output the loader consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	ImportMap  map[string]string
	ForTest    string
	DepOnly    bool
	Standard   bool
	Incomplete bool
}

// golist runs `go list -e -json -deps -test -export` on args in dir and
// decodes the JSON stream.
func golist(dir string, args []string) ([]*listPkg, error) {
	cmdArgs := append([]string{
		"list", "-e",
		"-json=ImportPath,Name,Dir,GoFiles,CgoFiles,Export,ImportMap,ForTest,DepOnly,Standard,Incomplete",
		"-deps", "-test", "-export", "--",
	}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint/load: go list %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint/load: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportIndex resolves import paths to gc export-data files.
type exportIndex map[string]string

// lookupFor returns the gc importer lookup function for a package with the
// given ImportMap (test variants map the base package's path to the
// in-package test variant's export data).
func (x exportIndex) lookupFor(importMap map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		f, ok := x[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// newInfo allocates a types.Info with every map analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Load lists patterns in dir and returns every matched package — including
// test variants — parsed and type-checked. Synthesized test-main packages
// ("pkg.test") are skipped: they contain only generated code.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := golist(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := exportIndex{}
	var targets []*listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		switch {
		case p.DepOnly || p.Standard:
		case strings.HasSuffix(p.ImportPath, ".test"):
			// Generated test-main harness.
		case len(p.GoFiles) == 0:
		default:
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	out := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	par.Each(len(targets), func(i int) { out[i], errs[i] = check(fset, exports, targets[i]) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, exports exportIndex, lp *listPkg) (*Package, error) {
	if len(lp.CgoFiles) > 0 {
		return nil, fmt.Errorf("lint/load: %s uses cgo, unsupported", lp.ImportPath)
	}
	pkg := &Package{
		ID:      lp.ImportPath,
		PkgPath: basePath(lp),
		Dir:     lp.Dir,
		Fset:    fset,
	}
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint/load: %s: %w", lp.ImportPath, err)
		}
		pkg.Syntax = append(pkg.Syntax, f)
		pkg.IsTest = append(pkg.IsTest, strings.HasSuffix(name, "_test.go"))
	}
	info := newInfo()
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", exports.lookupFor(lp.ImportMap)),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, pkg.Syntax, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	pkg.TypesInfo = info
	return pkg, nil
}

// basePath strips go list's test-variant decoration:
// "p [p.test]" → p, "p_test [p.test]" → p.
func basePath(lp *listPkg) string {
	path := lp.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	if lp.ForTest != "" {
		return lp.ForTest
	}
	return path
}

// Importer returns a types.Importer able to resolve the given import paths
// (and all their dependencies) from build-cache export data, listing them
// from dir. The analysistest harness uses it to type-check testdata
// packages that import both the standard library and real engine packages.
func Importer(dir string, fset *token.FileSet, paths ...string) (types.Importer, error) {
	if len(paths) == 0 {
		return importer.ForCompiler(fset, "gc", func(string) (io.ReadCloser, error) {
			return nil, fmt.Errorf("no imports expected")
		}), nil
	}
	listed, err := golist(dir, paths)
	if err != nil {
		return nil, err
	}
	exports := exportIndex{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return importer.ForCompiler(fset, "gc", exports.lookupFor(nil)), nil
}
