// Command sketchvet is the repository's static-analysis gate: a
// dependency-free driver (stdlib go/parser + go/types only) running the
// analyzers in tools/sketchvet/vet over whole packages. It enforces the
// invariants go vet cannot see — atomic-access discipline, zero-alloc
// hot paths, context/trace propagation — plus the gofmt and
// doc-comment checks formerly scattered across CI stages. See
// docs/static-analysis.md for the analyzer catalog and the
// //sketch:hotpath and //sketch:ignore pragmas.
//
// Usage:
//
//	go run ./tools/sketchvet [flags] <package-dir|dir/...> ...
//
// Each analyzer has a bool flag named after it (-hotalloc=false skips
// the hot-path check); -json emits the findings as a JSON array on
// stdout.
//
// Exit codes: 0 clean, 1 findings, 2 usage/load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/tools/sketchvet/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole program minus os.Exit: 0 clean, 1 findings, 2 usage
// or load errors.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sketchvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	analyzers := vet.Analyzers()
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, a.Doc)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: sketchvet [flags] <package-dir|dir/...> ...")
		return 2
	}
	mod, err := vet.Load(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "sketchvet:", err)
		return 2
	}
	ctx := &vet.Context{Module: mod}
	var active []*vet.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	findings := vet.Run(ctx, active)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []vet.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "sketchvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "sketchvet: %d findings\n", len(findings))
		return 1
	}
	return 0
}
