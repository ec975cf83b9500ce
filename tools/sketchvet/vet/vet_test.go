package vet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureRoot is the shared fixture tree, relative to this package.
const fixtureRoot = "../testdata/src"

// analyzerByName resolves one analyzer from the registry.
func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// runFixture loads one fixture package and runs a single analyzer over
// it, returning findings rendered with fixture-relative paths.
func runFixture(t *testing.T, analyzer, dir string) []string {
	t.Helper()
	mod, err := Load([]string{dir})
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	for _, pkg := range mod.Packages {
		if pkg.TypeErr != nil {
			t.Fatalf("type-checking %s: %v", dir, pkg.TypeErr)
		}
	}
	ctx := &Context{Module: mod}
	var out []string
	for _, f := range Run(ctx, []*Analyzer{analyzerByName(t, analyzer)}) {
		out = append(out, strings.TrimPrefix(f.String(), filepath.ToSlash(dir)+"/"))
	}
	return out
}

// TestFixtures drives every analyzer over its bad/suppressed/clean
// fixture packages: bad must reproduce the golden expect.txt exactly,
// suppressed and clean must be finding-free.
func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		analyzer := e.Name()
		t.Run(analyzer, func(t *testing.T) {
			cases, err := os.ReadDir(filepath.Join(fixtureRoot, analyzer))
			if err != nil {
				t.Fatal(err)
			}
			if len(cases) == 0 {
				t.Fatalf("no fixture cases for %s", analyzer)
			}
			for _, c := range cases {
				dir := filepath.Join(fixtureRoot, analyzer, c.Name())
				t.Run(c.Name(), func(t *testing.T) {
					got := runFixture(t, analyzer, dir)
					var want []string
					if data, err := os.ReadFile(filepath.Join(dir, "expect.txt")); err == nil {
						for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
							if line != "" {
								want = append(want, line)
							}
						}
					}
					if c.Name() == "bad" && len(want) == 0 {
						t.Fatalf("bad fixture %s has no golden findings", dir)
					}
					if c.Name() != "bad" && len(want) > 0 {
						t.Fatalf("%s fixture %s unexpectedly has golden findings", c.Name(), dir)
					}
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Errorf("findings mismatch for %s\n got:\n  %s\nwant:\n  %s",
							dir, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
					}
				})
			}
		})
	}
}

// TestRunSortsFindings asserts the driver's position ordering across
// analyzers, which the golden comparisons depend on.
func TestRunSortsFindings(t *testing.T) {
	dir := filepath.Join(fixtureRoot, "ctxflow", "bad")
	mod, err := Load([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(&Context{Module: mod}, Analyzers())
	for i := 1; i < len(findings); i++ {
		if findings[i-1].Pos > findings[i].Pos && findings[i-1].Analyzer == findings[i].Analyzer {
			t.Errorf("findings out of order: %s before %s", findings[i-1], findings[i])
		}
	}
}

// TestExpandPatternsSkipsTestdata makes sure recursive expansion never
// descends into fixture trees, which contain deliberate violations.
func TestExpandPatternsSkipsTestdata(t *testing.T) {
	dirs, err := expandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("expandPatterns descended into %s", d)
		}
	}
}
