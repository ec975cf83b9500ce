package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
BenchmarkEngineProcess/shards=4-8   	     123	    456.7 ns/op	      89 B/op	       1 allocs/op
BenchmarkGatewayQuery-8   	      10	  99000 ns/op	 1234567 pts/s
PASS
ok  	repro	1.2s
`
	results, err := parseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2: %+v", len(results), results)
	}
	r := results[0]
	if r.Name != "BenchmarkEngineProcess/shards=4-8" || r.Iterations != 123 {
		t.Fatalf("first result = %+v", r)
	}
	if r.Metrics["ns/op"] != 456.7 || r.Metrics["B/op"] != 89 || r.Metrics["allocs/op"] != 1 {
		t.Fatalf("first result metrics = %v", r.Metrics)
	}
	if results[1].Metrics["pts/s"] != 1234567 {
		t.Fatalf("custom metric lost: %v", results[1].Metrics)
	}
}

func TestParseBenchSkipsNonResultLines(t *testing.T) {
	// "Benchmark..." lines without an iteration count (like the -bench
	// name echo some go versions print) must be skipped, not fatal.
	results, err := parseBench("BenchmarkFoo\nBenchmarkBar-8 notanumber 1 ns/op\nrandom text\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("parsed %d results from junk, want 0", len(results))
	}
}

func TestParseBenchBadMetricValue(t *testing.T) {
	_, err := parseBench("BenchmarkFoo-8 100 nonsense ns/op\n")
	if err == nil || !strings.Contains(err.Error(), "bad metric value") {
		t.Fatalf("err = %v, want bad metric value", err)
	}
}

func TestMissingRequired(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkEngineProcess/shards=4-8"},
		{Name: "BenchmarkGatewayQuery-8"},
	}
	if m := missingRequired(results, "BenchmarkEngineProcess,BenchmarkGatewayQuery"); len(m) != 0 {
		t.Fatalf("missing = %v, want none", m)
	}
	m := missingRequired(results, "BenchmarkEngineProcess, BenchmarkSketchMarshal ,BenchmarkGone")
	if len(m) != 2 || m[0] != "BenchmarkSketchMarshal" || m[1] != "BenchmarkGone" {
		t.Fatalf("missing = %v, want the two absent prefixes", m)
	}
	if m := missingRequired(nil, ""); len(m) != 0 {
		t.Fatalf("empty spec flagged %v", m)
	}
	if m := missingRequired(results, " , ,"); len(m) != 0 {
		t.Fatalf("blank prefixes flagged %v", m)
	}
}

// writeReport writes a baseline report with the given benchmarks into
// dir and returns its path.
func writeReport(t *testing.T, dir string, benchmarks []Result) string {
	t.Helper()
	path := filepath.Join(dir, "base.json")
	blob, err := json.Marshal(Report{GoVersion: "go1.24.0", Benchmarks: benchmarks})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReportsNsRegression(t *testing.T) {
	base := writeReport(t, t.TempDir(), []Result{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 100}},
		{Name: "BenchmarkOnlyInBaseline", Metrics: map[string]float64{"ns/op": 1}},
	})
	fresh := []Result{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 150}}, // +50% > 20%
		{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 110}}, // +10% ≤ 20%
		{Name: "BenchmarkOnlyInFresh", Metrics: map[string]float64{"ns/op": 999}},
	}
	ns, allocs, err := compareReports(base, fresh, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ns != 1 || allocs != 0 {
		t.Fatalf("regressed = (%d ns, %d allocs), want (1, 0)", ns, allocs)
	}
}

func TestCompareReportsAllocRegression(t *testing.T) {
	base := writeReport(t, t.TempDir(), []Result{
		{Name: "BenchmarkGrew", Metrics: map[string]float64{"allocs/op": 10}},
		{Name: "BenchmarkHeld", Metrics: map[string]float64{"allocs/op": 10}},
		{Name: "BenchmarkZeroStillZero", Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "BenchmarkZeroBroken", Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "BenchmarkNoAllocMetric", Metrics: map[string]float64{"ns/op": 5}},
	})
	fresh := []Result{
		{Name: "BenchmarkGrew", Metrics: map[string]float64{"allocs/op": 12}}, // +20% > 10%
		{Name: "BenchmarkHeld", Metrics: map[string]float64{"allocs/op": 11}}, // +10% ≤ 10%
		{Name: "BenchmarkZeroStillZero", Metrics: map[string]float64{"allocs/op": 0}},
		{Name: "BenchmarkZeroBroken", Metrics: map[string]float64{"allocs/op": 1}}, // 0 → any is a regression
		{Name: "BenchmarkNoAllocMetric", Metrics: map[string]float64{"ns/op": 5}},
	}
	ns, allocs, err := compareReports(base, fresh, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ns != 0 || allocs != 2 {
		t.Fatalf("regressed = (%d ns, %d allocs), want (0, 2): Grew and ZeroBroken", ns, allocs)
	}
}

func TestCompareReportsErrors(t *testing.T) {
	if _, _, err := compareReports(filepath.Join(t.TempDir(), "nope.json"), nil, 20, 10); err == nil {
		t.Fatal("missing baseline file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := compareReports(bad, nil, 20, 10); err == nil {
		t.Fatal("malformed baseline JSON accepted")
	}
}

// TestCompareReportsNoMatch pins that a run matching no baseline row —
// here every fresh name carries the -2 suffix go test appends when
// GOMAXPROCS is 2 — fails instead of comparing nothing.
func TestCompareReportsNoMatch(t *testing.T) {
	base := writeReport(t, t.TempDir(), []Result{
		{Name: "BenchmarkA", Metrics: map[string]float64{"allocs/op": 1}},
		{Name: "BenchmarkB/k=1", Metrics: map[string]float64{"allocs/op": 0}},
	})
	fresh := []Result{
		{Name: "BenchmarkA-2", Metrics: map[string]float64{"allocs/op": 9}},
		{Name: "BenchmarkB/k=1-2", Metrics: map[string]float64{"allocs/op": 9}},
	}
	_, _, err := compareReports(base, fresh, 20, 10)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("err = %v, want a no-match error naming GOMAXPROCS", err)
	}
}

func TestLoadReport(t *testing.T) {
	path := writeReport(t, t.TempDir(), []Result{
		{Name: "BenchmarkQuery", Iterations: 25, Metrics: map[string]float64{"ns/op": 1234}},
	})
	rep, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkQuery" {
		t.Fatalf("loaded %+v", rep.Benchmarks)
	}
	if _, err := loadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}
