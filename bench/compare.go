package main

// -compare: the repeatability check. Two sets of results files are
// reduced to per-workload medians, and every end-to-end metric is held to
// the bound BENCHMARK.json fixes for it.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// floors are absolute allowances, in the metric's unit, that apply where
// they allow more than the share bound.
var floors = map[string]float64{"setup_s": 0.05}

// extraBounds cover the answer-quality metrics, which BENCHMARK.json
// cannot carry: error_ratio is 0 on a healthy run and f0_rel_err exists
// on one workload only.
var extraBounds = map[string]bound{
	"error_ratio": {better: "lower"},
	"f0_rel_err":  {better: "lower", floor: 0.05},
}

// ungated metrics are reported, compared and printed, but have no bound:
// on a shared host their run-to-run spread exceeds any bound the contract
// allows (README.md, "Noise").
var ungated = []string{"ingest_pts_per_s", "cpu_s_per_mpts", "ingest_p50_ms", "ingest_p99_ms", "query_p50_ms", "query_p99_ms", "staleness_mean_ms"}

// bounds returns every compared metric's bound, in print order; ungated
// metrics have none.
func bounds(ctr *contract) ([]string, map[string]bound) {
	var names []string
	out := map[string]bound{}
	for _, m := range ctr.EndToEnd {
		names = append(names, m.Name)
		out[m.Name] = bound{better: m.Better, share: m.Bound, floor: floors[m.Name]}
	}
	for _, n := range []string{"error_ratio", "f0_rel_err"} {
		names = append(names, n)
		out[n] = extraBounds[n]
	}
	for _, n := range ungated {
		if _, ok := out[n]; !ok {
			names = append(names, n)
		}
	}
	return names, out
}

func loadReports(pattern string) ([]*report, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results files match %q", pattern)
	}
	var out []*report
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// values collects one workload's end-to-end metric over a set of runs.
func values(reps []*report, workload, name string) []float64 {
	var v []float64
	for _, r := range reps {
		for _, res := range r.Workloads {
			if m, ok := res.E2E[name]; ok && res.Workload == workload {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// compareRuns prints one row per metric per workload and reports whether
// every median of set b stays within its bound of set a's.
func compareRuns(w io.Writer, ctr *contract, patternA, patternB string) (bool, error) {
	a, err := loadReports(patternA)
	if err != nil {
		return false, err
	}
	b, err := loadReports(patternB)
	if err != nil {
		return false, err
	}
	names, bds := bounds(ctr)
	ok := true
	fmt.Fprintf(w, "%-17s %-18s %5s %12s %12s %10s %10s %s\n", "workload", "metric", "runs", "median_a", "median_b", "worse_by", "allowed", "verdict")
	for _, wl := range workloads {
		for _, n := range names {
			va, vb := values(a, wl.name, n), values(b, wl.name, n)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			bd, gated := bds[n]
			if !gated {
				fmt.Fprintf(w, "%-17s %-18s %2d/%-2d %12.5g %12.5g %10s %10s %s\n", wl.name, n, len(va), len(vb), ma, mb, "-", "-", "not gated")
				continue
			}
			worse, bad := bd.worsening(ma, mb)
			verdict := "ok"
			if bad {
				verdict, ok = "WORSE", false
			}
			fmt.Fprintf(w, "%-17s %-18s %2d/%-2d %12.5g %12.5g %10.3g %10.3g %s\n", wl.name, n, len(va), len(vb), ma, mb, worse, bd.allowed(ma), verdict)
		}
	}
	return ok, nil
}
