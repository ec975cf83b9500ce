package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestStatsDeclaration pins the contract both tiers build /stats and
// /metrics on: one declaration renders a counter's JSON value and its
// family from the same atomic, a flag as a JSON bool and as 0/1, keeps
// key-less gauges out of the JSON, and registers families in
// declaration order with the derived names and types.
func TestStatsDeclaration(t *testing.T) {
	st := NewStats("test")
	hits := st.Counter("hits", "Hits served.")
	st.Gauge("level", "Current level.", func() float64 { return 2.5 })
	st.MetricGauge("start_time_seconds", "Start time.", func() float64 { return 7 })
	ready := true
	st.Flag("ready", "1 while ready.", func() bool { return ready })
	r := NewRegistry()
	st.Register(r)

	hits.Add(3)
	js, snap := st.JSON(), r.Snapshot()
	if js["hits"] != int64(3) || snap["sketch_test_hits_total"] != 3 {
		t.Fatalf("counter: JSON %v, family %v, want both 3", js["hits"], snap["sketch_test_hits_total"])
	}
	hits.Add(1)
	if got := st.JSON()["hits"]; got != int64(4) || r.Snapshot()["sketch_test_hits_total"] != 4 {
		t.Fatalf("counter after Add: JSON %v, family %v, want both 4", got, r.Snapshot()["sketch_test_hits_total"])
	}
	if js["level"] != 2.5 || snap["sketch_test_level"] != 2.5 {
		t.Fatalf("gauge: JSON %v, family %v, want both 2.5", js["level"], snap["sketch_test_level"])
	}
	if _, ok := js["start_time_seconds"]; ok || len(js) != 3 {
		t.Fatalf("JSON %v: want exactly hits, level and ready (no key-less gauge)", js)
	}
	if snap["sketch_test_start_time_seconds"] != 7 {
		t.Fatalf("key-less gauge family = %v, want 7", snap["sketch_test_start_time_seconds"])
	}

	for _, want := range []struct {
		on   bool
		json string
		num  float64
	}{{true, `"ready":true`, 1}, {false, `"ready":false`, 0}} {
		ready = want.on
		b, err := json.Marshal(st.JSON())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), want.json) {
			t.Errorf("flag %v renders %s, want %s", want.on, b, want.json)
		}
		if got := r.Snapshot()["sketch_test_ready"]; got != want.num {
			t.Errorf("flag %v family = %v, want %v", want.on, got, want.num)
		}
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types = append(types, f)
		}
	}
	want := []string{
		"sketch_test_hits_total counter",
		"sketch_test_level gauge",
		"sketch_test_start_time_seconds gauge",
		"sketch_test_ready gauge",
	}
	if strings.Join(types, "\n") != strings.Join(want, "\n") {
		t.Fatalf("families:\n%s\nwant, in declaration order:\n%s", strings.Join(types, "\n"), strings.Join(want, "\n"))
	}
}
