// Command skewlint is the repository's invariant multichecker: it runs the
// four analyzers in internal/lint (nodeterminismbreak, noalloc, ctxflow,
// errwrap) over go list package patterns. The standard checks are go vet's
// job; CI runs both.
//
//	go run ./cmd/skewlint ./...
//	go run ./cmd/skewlint -only noalloc,nodeterminismbreak ./internal/mpc
//	go run ./cmd/skewlint -list
//
// Exit status: 0 clean, 1 findings, 2 operational error. Suppressions are
// //skewlint:allow directives in the source (see internal/lint).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		listFlag = flag.Bool("list", false, "list analyzers and exit")
		onlyFlag = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		dirFlag  = flag.String("C", ".", "directory to resolve patterns in (module root)")
	)
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Printf("%-20s %s\n", a.Name, doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *onlyFlag != "" {
		var err error
		if analyzers, err = lint.ByName(*onlyFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.LoadAndRun(*dirFlag, analyzers, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(findings) == 0 {
		return
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	fmt.Fprintf(os.Stderr, "skewlint: %d finding(s)\n", len(findings))
	os.Exit(1)
}
