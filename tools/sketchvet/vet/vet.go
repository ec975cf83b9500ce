// Package vet is the analysis engine behind the sketchvet command: a
// dependency-free static-analysis driver (stdlib go/parser + go/types,
// source-importer type-checking — no golang.org/x/tools) running the
// repository's invariant checks over whole packages. The analyzers and
// the pragmas they honor (//sketch:hotpath, //sketch:ignore) are
// documented in docs/static-analysis.md; tools/lintdoc reuses the
// gofmt and doc-comment checks so the two binaries cannot drift.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Pragma prefixes recognized in comments.
const (
	// HotPathPragma marks a function whose body (and every function it
	// transitively calls within the module) must not allocate.
	HotPathPragma = "//sketch:hotpath"
	// IgnorePragma suppresses findings on its own line and the line
	// below. The reason after the pragma is mandatory.
	IgnorePragma = "//sketch:ignore"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// Pos is the "file:line:col" position of the finding (file paths are
	// as given on the command line, so module runs report relative paths).
	Pos string `json:"pos"`
	// Message describes the violated invariant.
	Message string `json:"message"`

	file string
	line int
}

// String renders the finding in the conventional file:line: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is one named pass over a loaded package.
type Analyzer struct {
	// Name is the analyzer's identifier (the -<name> enable flag).
	Name string
	// Doc is the one-line description shown by -help.
	Doc string
	// NeedTypes marks analyzers that skip packages with type errors.
	NeedTypes bool
	// Run analyzes one package in the context of the whole module.
	Run func(*Context, *Package) []Finding
}

// Context carries module-wide state shared by every analyzer run.
type Context struct {
	// Module is the loaded analysis target.
	Module *Module

	hot *hotIndex // lazily built hotpath call-graph closure
}

// Analyzers returns the full analyzer suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AtomicMix(),
		HotAlloc(),
		CtxFlow(),
		Gofmt(),
		DocComment(),
		Pragmas(),
	}
}

// Run executes the enabled analyzers over every loaded package and
// returns the surviving (non-suppressed) findings sorted by position.
// Suppression is per line: a //sketch:ignore comment covers findings on
// its own line and on the line directly below it.
func Run(ctx *Context, enabled []*Analyzer) []Finding {
	var all []Finding
	for _, pkg := range ctx.Module.Packages {
		sup := suppressedLines(pkg)
		for _, a := range enabled {
			if a.NeedTypes && (pkg.TypeErr != nil || pkg.Types == nil) {
				continue
			}
			for _, f := range a.Run(ctx, pkg) {
				if sup[lineKey{f.file, f.line}] || sup[lineKey{f.file, f.line - 1}] {
					continue
				}
				all = append(all, f)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].file != all[j].file {
			return all[i].file < all[j].file
		}
		if all[i].line != all[j].line {
			return all[i].line < all[j].line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all
}

type lineKey struct {
	file string
	line int
}

// suppressedLines maps every line carrying a well-formed //sketch:ignore
// pragma. Malformed pragmas (no reason) do not suppress — Pragmas flags
// them instead.
func suppressedLines(pkg *Package) map[lineKey]bool {
	sup := map[lineKey]bool{}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnorePragma) {
					continue
				}
				if strings.TrimSpace(strings.TrimPrefix(c.Text, IgnorePragma)) == "" {
					continue // reason missing: not a valid suppression
				}
				p := pkg.Fset.Position(c.Pos())
				sup[lineKey{p.Filename, p.Line}] = true
			}
		}
	}
	return sup
}

// finding builds a Finding at the given position.
func finding(pkg *Package, analyzer string, pos token.Pos, format string, args ...any) Finding {
	p := pkg.Fset.Position(pos)
	return Finding{
		Analyzer: analyzer,
		Pos:      fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column),
		Message:  fmt.Sprintf(format, args...),
		file:     p.Filename,
		line:     p.Line,
	}
}

// Pragmas validates the sketchvet pragmas themselves: every
// //sketch:ignore must carry a reason, so suppressions stay auditable,
// and //sketch:hotpath must be attached to a function declaration.
func Pragmas() *Analyzer {
	return &Analyzer{
		Name: "pragmas",
		Doc:  "sketch:ignore needs a reason; sketch:hotpath must annotate a function",
		Run: func(_ *Context, pkg *Package) []Finding {
			var out []Finding
			for _, file := range pkg.Files {
				hotDoc := map[*ast.Comment]bool{}
				ast.Inspect(file, func(n ast.Node) bool {
					fd, ok := n.(*ast.FuncDecl)
					if ok && fd.Doc != nil {
						for _, c := range fd.Doc.List {
							if strings.HasPrefix(c.Text, HotPathPragma) {
								hotDoc[c] = true
							}
						}
					}
					return true
				})
				for _, cg := range file.Comments {
					for _, c := range cg.List {
						switch {
						case strings.HasPrefix(c.Text, IgnorePragma):
							if strings.TrimSpace(strings.TrimPrefix(c.Text, IgnorePragma)) == "" {
								out = append(out, finding(pkg, "pragmas", c.Pos(),
									"//sketch:ignore without a reason — state why the finding is intentional"))
							}
						case strings.HasPrefix(c.Text, HotPathPragma):
							if !hotDoc[c] {
								out = append(out, finding(pkg, "pragmas", c.Pos(),
									"//sketch:hotpath must be part of a function's doc comment"))
							}
						}
					}
				}
			}
			return out
		},
	}
}

// funcHasPragma reports whether the function's doc comment carries the
// given pragma.
func funcHasPragma(fd *ast.FuncDecl, pragma string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, pragma) {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file. Loaded
// packages exclude test files from type-checking, so this only guards
// analyzers that also scan raw file lists.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
