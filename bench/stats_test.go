package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestPercentileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 7, 100, 1001} {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.ExpFloat64()
		}
		ref := slices.Clone(v)
		slices.Sort(ref)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
			want := ref[int(math.Ceil(q*float64(n)))-1]
			if got := percentile(slices.Clone(v), q); got != want {
				t.Errorf("n=%d q=%g: percentile %g, sorted reference %g", n, q, got, want)
			}
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 0.5); got != 3 {
		t.Errorf("median of 1..5 = %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of no samples is a number")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g", got)
	}
}

func TestBoundHandlesDirectionsAndFloors(t *testing.T) {
	for _, c := range []struct {
		name       string
		bd         bound
		base, cur  float64
		regression bool
	}{
		{"lower within", bound{better: "lower", share: 0.1}, 10, 10.9, false},
		{"lower beyond", bound{better: "lower", share: 0.1}, 10, 11.1, true},
		{"lower improved", bound{better: "lower", share: 0.1}, 10, 5, false},
		{"higher within", bound{better: "higher", share: 0.1}, 100, 91, false},
		{"higher beyond", bound{better: "higher", share: 0.1}, 100, 89, true},
		{"higher improved", bound{better: "higher", share: 0.1}, 100, 200, false},
		{"floor allows more", bound{better: "lower", share: 0.25, floor: 0.05}, 0.01, 0.055, false},
		{"floor exceeded", bound{better: "lower", share: 0.25, floor: 0.05}, 0.01, 0.07, true},
		{"share allows more", bound{better: "lower", share: 0.25, floor: 0.05}, 1, 1.2, false},
		{"any increase, equal", extraBounds["error_ratio"], 0, 0, false},
		{"any increase, up", extraBounds["error_ratio"], 0, 1e-4, true},
		{"absolute floor within", extraBounds["f0_rel_err"], 0.03, 0.07, false},
		{"absolute floor beyond", extraBounds["f0_rel_err"], 0.03, 0.09, true},
	} {
		if _, bad := c.bd.worsening(c.base, c.cur); bad != c.regression {
			t.Errorf("%s: %g → %g regression=%t, want %t", c.name, c.base, c.cur, bad, c.regression)
		}
	}
}

func TestCompareRunsUsesMediansAndContractBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cost float64) {
		r := report{Workloads: []*result{{Workload: "cluster-dup", E2E: metrics{
			"cpu_cost_ratio": {Value: cost, Unit: "ratio"},
			"error_ratio":    {Value: 0, Unit: "ratio"},
			"ingest_p99_ms":  {Value: 100 * cost, Unit: "ms"},
		}}}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a1.json", 10)
	write("a2.json", 10.4)
	write("a3.json", 100) // an outlier the median ignores
	write("b1.json", 11)  // 6% worse: within the bound; its p99 is not gated
	write("c1.json", 13)  // 25% worse
	ctr := &contract{EndToEnd: []contractMetric{{Name: "cpu_cost_ratio", Better: "lower", Bound: 0.2}}}
	var out bytes.Buffer
	ok, err := compareRuns(&out, ctr, filepath.Join(dir, "a*.json"), filepath.Join(dir, "b*.json"))
	if err != nil || !ok {
		t.Errorf("11 against a median of 10.4 failed a 20%% bound (err %v):\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("not gated")) {
		t.Errorf("no ungated row in:\n%s", out.String())
	}
	out.Reset()
	ok, err = compareRuns(&out, ctr, filepath.Join(dir, "a*.json"), filepath.Join(dir, "c*.json"))
	if err != nil || ok {
		t.Errorf("13 against a median of 10.4 passed a 20%% bound (err %v):\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("WORSE")) {
		t.Errorf("no WORSE row in:\n%s", out.String())
	}
}
