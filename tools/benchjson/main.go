// Command benchjson runs a set of benchmarks through `go test -bench`
// and emits the results as machine-readable JSON, so the repository's
// performance trajectory can be tracked commit over commit (CI runs a
// 25x pass against the committed baseline and archives the file).
//
//	GOMAXPROCS=1 go run ./tools/benchjson -benchtime 25x  # engine, f0 engine, window, window f0, gateway, folds, marshal, query, snapshot rebuild → BENCH_engine.json
//	go run ./tools/benchjson -bench 'BenchmarkF0' -benchtime 10x -out f0.json
//
// The output records the environment (go version, GOOS/GOARCH, CPU
// count, timestamp) and, per benchmark, the iteration count and every
// metric `go test` printed — ns/op, B/op, allocs/op, and custom
// b.ReportMetric units such as pts/s and queries/s.
//
// -require names benchmarks (comma-separated prefixes) that must appear
// in the output; a missing one — a renamed or deleted benchmark that
// would otherwise silently vanish from the perf trajectory — makes
// benchjson exit non-zero. It defaults to the benchmarks tracked in the
// committed BENCH_engine.json baseline, but the default applies only to
// the default -bench selection: a custom -bench deliberately narrows
// the run, so the baseline check is skipped unless -require is given
// explicitly.
//
// -compare old.json diffs the fresh run against a previous report and
// prints per-benchmark ns/op and allocs/op changes; benchmarks
// regressing more than -max-regress percent ns/op (or
// -max-regress-allocs percent allocs/op) are flagged with a WARNING
// line. The flags warn by default and only fail the run when
// -fail-on-regress (ns/op) or -fail-on-alloc-regress (allocs/op) is
// set — CI gates on allocations only, since allocs/op is deterministic
// while wall time is noisy on shared runners. Rows match by full name,
// and go test suffixes every name with -N when GOMAXPROCS > 1;
// BENCH_engine.json was measured at GOMAXPROCS=1, so compare against it
// under GOMAXPROCS=1. A run that matches no baseline row fails instead
// of comparing nothing:
//
//	GOMAXPROCS=1 go run ./tools/benchjson -benchtime 25x -compare BENCH_engine.json -max-regress 20 -out /tmp/new.json
//	GOMAXPROCS=1 go run ./tools/benchjson -benchtime 25x -compare BENCH_engine.json -fail-on-alloc-regress -out /tmp/new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line of `go test -bench` output.
type Result struct {
	// Name is the full benchmark name including sub-benchmark path and
	// GOMAXPROCS suffix, e.g. "BenchmarkEngineProcess/shards=4-8".
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit → value for every metric on the line (ns/op,
	// B/op, allocs/op, custom b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the JSON document benchjson writes.
type Report struct {
	// GoVersion, GOOS, GOARCH, and NumCPU describe the machine the
	// numbers were measured on.
	GoVersion string `json:"go_version"`
	// GOOS is the target operating system.
	GOOS string `json:"goos"`
	// GOARCH is the target architecture.
	GOARCH string `json:"goarch"`
	// NumCPU is runtime.NumCPU at measurement time.
	NumCPU int `json:"num_cpu"`
	// GeneratedAt is the measurement timestamp (RFC 3339, UTC).
	GeneratedAt string `json:"generated_at"`
	// Bench is the -bench regexp that selected the benchmarks.
	Bench string `json:"bench"`
	// Benchtime is the -benchtime the benchmarks ran with.
	Benchtime string `json:"benchtime"`
	// Benchmarks holds one entry per benchmark line.
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		bench     = flag.String("bench", "BenchmarkEngineProcess|BenchmarkF0EngineProcess|BenchmarkWindowEngineProcess|BenchmarkWindowF0EngineProcess|BenchmarkGatewayQueryWarm|BenchmarkFederatedFold|BenchmarkWindowFold|BenchmarkSketchMarshal|BenchmarkQuery$|BenchmarkSnapshotRebuild", "benchmark selection regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value (e.g. 1x, 100x, 2s)")
		pkg       = flag.String("pkg", ".", "package pattern to benchmark")
		out       = flag.String("out", "BENCH_engine.json", "output JSON file")
		require   = flag.String("require", "BenchmarkEngineProcess,BenchmarkF0EngineProcess,BenchmarkWindowEngineProcess,BenchmarkWindowF0EngineProcess,BenchmarkGatewayQueryWarm,BenchmarkFederatedFold,BenchmarkWindowFold,BenchmarkSketchMarshal,BenchmarkQuery,BenchmarkSnapshotRebuild",
			"comma-separated benchmark name prefixes that must appear in the results (empty disables the check; the default applies only with the default -bench)")
		compare     = flag.String("compare", "", "previous report JSON to diff the fresh run against (ns/op and allocs/op)")
		maxRegress  = flag.Float64("max-regress", 20, "percent ns/op slowdown vs -compare above which a benchmark is flagged")
		failRegr    = flag.Bool("fail-on-regress", false, "exit non-zero when any benchmark exceeds -max-regress (default: warn only)")
		maxAllocs   = flag.Float64("max-regress-allocs", 10, "percent allocs/op growth vs -compare above which a benchmark is flagged")
		failAllocRg = flag.Bool("fail-on-alloc-regress", false, "exit non-zero when any benchmark exceeds -max-regress-allocs (default: warn only)")
	)
	flag.Parse()
	benchSet, requireSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "bench":
			benchSet = true
		case "require":
			requireSet = true
		}
	})
	if benchSet && !requireSet {
		*require = "" // custom selection: the baseline set does not apply
	}

	cmd := exec.Command("go", "test", "-run", "^$", "-bench", *bench,
		"-benchtime", *benchtime, "-benchmem", *pkg)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fatal(fmt.Errorf("go test: %w", err))
	}
	results, err := parseBench(stdout.String())
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark lines matched %q (output:\n%s)", *bench, stdout.String()))
	}
	report := Report{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Bench:       *bench,
		Benchtime:   *benchtime,
		Benchmarks:  results,
	}
	if missing := missingRequired(results, *require); len(missing) > 0 {
		fatal(fmt.Errorf("expected benchmarks missing from the run: %s (renamed or deleted? update -require and the baseline)",
			strings.Join(missing, ", ")))
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: %d benchmarks → %s\n", len(results), *out)
	if *compare != "" {
		nsRegr, allocRegr, err := compareReports(*compare, results, *maxRegress, *maxAllocs)
		if err != nil {
			fatal(err)
		}
		if nsRegr > 0 && *failRegr {
			fatal(fmt.Errorf("%d benchmark(s) regressed more than %g%% ns/op vs %s", nsRegr, *maxRegress, *compare))
		}
		if allocRegr > 0 && *failAllocRg {
			fatal(fmt.Errorf("%d benchmark(s) regressed more than %g%% allocs/op vs %s", allocRegr, *maxAllocs, *compare))
		}
	}
}

// compareReports diffs the fresh results against a previous report and
// prints one line per benchmark and tracked metric present in both,
// flagging ns/op slowdowns beyond maxRegress percent and allocs/op
// growth beyond maxAllocs percent with WARNING. It returns the flagged
// counts per metric. Benchmarks present in only one of the two runs are
// skipped (renames are caught by -require), but a run that matches no
// baseline row at all compared nothing and is an error.
func compareReports(path string, results []Result, maxRegress, maxAllocs float64) (nsRegressed, allocRegressed int, err error) {
	old, err := loadReport(path)
	if err != nil {
		return 0, 0, fmt.Errorf("comparison baseline: %w", err)
	}
	oldBy := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Name] = r
	}
	matched := 0
	for _, r := range results {
		prev, ok := oldBy[r.Name]
		if !ok {
			continue
		}
		matched++
		if was, now := prev.Metrics["ns/op"], r.Metrics["ns/op"]; was > 0 && now > 0 {
			pct := (now - was) / was * 100
			if pct > maxRegress {
				nsRegressed++
				fmt.Printf("benchjson: WARNING: %s regressed %+.1f%% ns/op (%.0f → %.0f, threshold %g%%)\n",
					r.Name, pct, was, now, maxRegress)
			} else {
				fmt.Printf("benchjson: %s %+.1f%% ns/op (%.0f → %.0f)\n", r.Name, pct, was, now)
			}
		}
		was, wasOK := prev.Metrics["allocs/op"]
		now, nowOK := r.Metrics["allocs/op"]
		if !wasOK || !nowOK {
			continue
		}
		// A zero-alloc baseline has no percentage to grow by: any
		// allocation at all is the regression there.
		if regress := was > 0 && (now-was)/was*100 > maxAllocs || was == 0 && now > 0; regress {
			allocRegressed++
			fmt.Printf("benchjson: WARNING: %s regressed allocs/op (%.0f → %.0f, threshold %g%%)\n",
				r.Name, was, now, maxAllocs)
		}
	}
	if matched == 0 {
		return 0, 0, fmt.Errorf("no benchmark of this run matches a row of %s, so nothing was compared; "+
			"likely cause: go test appends a -N GOMAXPROCS suffix to names when GOMAXPROCS > 1, "+
			"so run with the GOMAXPROCS the baseline was measured at (GOMAXPROCS=1 for BENCH_engine.json)", path)
	}
	return nsRegressed, allocRegressed, nil
}

// loadReport reads and parses a report JSON file.
func loadReport(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading report: %w", err)
	}
	var r Report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("parsing report %s: %w", path, err)
	}
	return &r, nil
}

// missingRequired returns the required benchmark prefixes (comma-
// separated in spec) that no result line starts with.
func missingRequired(results []Result, spec string) []string {
	var missing []string
	for _, want := range strings.Split(spec, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for _, r := range results {
			if strings.HasPrefix(r.Name, want) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, want)
		}
	}
	return missing
}

// parseBench extracts benchmark result lines from `go test -bench`
// output. A line is
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   1 allocs/op   2.5 pts/s
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBench(output string) ([]Result, error) {
	var results []Result
	for _, line := range strings.Split(output, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." headers without counts (e.g. goos lines) never parse here
		}
		r := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad metric value %q in line %q", fields[i], line)
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	return results, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
