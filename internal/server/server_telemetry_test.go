package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// newHTTPServer serves an already-built Server over loopback HTTP.
func newHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts.URL
}

// parseMetrics reads a Prometheus text body into a flat map keyed
// "name{labels}" (bare name for label-free series).
func parseMetrics(t *testing.T, body io.Reader) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// syncBuffer is a mutex-guarded slow-log sink safe to read from the test
// goroutine while handlers write.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestMetricsMirrorsStats(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, StreamBound: 1 << 16, K: 2, Seed: 7, HighDim: true}
	ts, _ := newL0Server(t, opts, 2, "")

	pts := stream(32, 4, 7)
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(pts))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, path := range []string{"/query?k=1", "/sketch", "/query?k=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := mustJSON[StatsResponse](t, resp, http.StatusOK)
	if st.Version == "" || st.Commit == "" {
		t.Fatalf("stats missing build info: version=%q commit=%q", st.Version, st.Commit)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	m := parseMetrics(t, resp.Body)

	// Every /stats counter must agree with its exposition mirror (both
	// read the same atomics, and the server is idle between the reads).
	mirror := map[string]int64{
		"sketch_daemon_ingest_requests_total":         st.IngestRequests,
		"sketch_daemon_points_ingested_total":         st.PointsIngested,
		"sketch_daemon_engine_enqueued_points_total":  st.Engine.Enqueued,
		"sketch_daemon_sketch_cache_hits_total":       st.SketchCacheHits,
		"sketch_daemon_sketch_cache_misses_total":     st.SketchCacheMisses,
		"sketch_daemon_watch_requests_total":          st.WatchRequests,
		"sketch_daemon_watch_changed_total":           st.WatchChanged,
		"sketch_daemon_watch_timeouts_total":          st.WatchTimeouts,
		"sketch_daemon_engine_shards":                 int64(st.Engine.Shards),
		"sketch_daemon_engine_processed_points_total": st.Engine.Processed,
		"sketch_daemon_engine_epoch":                  st.Engine.Epoch,
	}
	for name, want := range mirror {
		got, ok := m[name]
		if !ok {
			t.Errorf("metric %s missing from /metrics", name)
			continue
		}
		if int64(got) != want {
			t.Errorf("%s = %g, /stats says %d", name, got, want)
		}
	}
	if m["sketch_daemon_ingest_requests_total"] != 1 || int(m["sketch_daemon_points_ingested_total"]) != len(pts) {
		t.Fatalf("traffic not visible in metrics: %g requests, %g points",
			m["sketch_daemon_ingest_requests_total"], m["sketch_daemon_points_ingested_total"])
	}

	// Per-path request histograms and per-stage histograms saw the
	// traffic.
	if m[`sketch_daemon_request_seconds_count{path="/ingest"}`] != 1 {
		t.Fatalf("ingest request histogram count = %g, want 1", m[`sketch_daemon_request_seconds_count{path="/ingest"}`])
	}
	if m[`sketch_daemon_request_seconds_count{path="/query"}`] != 2 {
		t.Fatalf("query request histogram count = %g, want 2", m[`sketch_daemon_request_seconds_count{path="/query"}`])
	}
	for _, stage := range []string{"parse", "ingest", "snapshot", "answer", "export"} {
		if m[`sketch_daemon_stage_seconds_count{stage="`+stage+`"}`] < 1 {
			t.Errorf("stage %q recorded no observations", stage)
		}
	}
	found := false
	for k := range m {
		if strings.HasPrefix(k, `sketch_build_info{tier="daemon"`) && m[k] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("sketch_build_info gauge missing")
	}
}

func TestTraceEchoAndSlowLog(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, StreamBound: 1 << 16, K: 2, Seed: 7, HighDim: true}
	eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var slow syncBuffer
	srv, err := New(Config{
		Engine:          eng,
		Dim:             2,
		SlowQuery:       time.Nanosecond, // every request is "slow"
		SlowQueryWriter: &slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	const trace = "0123456789abcdef0123456789abcdef"
	req, _ := http.NewRequest("POST", ts+"/ingest", ndjsonBody(stream(8, 2, 3)))
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(telemetry.TraceHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceHeader); got != trace {
		t.Fatalf("ingest did not echo trace: got %q", got)
	}

	qreq, _ := http.NewRequest("GET", ts+"/query?k=1", nil)
	qreq.Header.Set(telemetry.TraceHeader, trace)
	resp, err = http.DefaultClient.Do(qreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceHeader); got != trace {
		t.Fatalf("query did not echo trace: got %q", got)
	}

	// Both requests crossed the 1ns threshold, so the log holds one JSON
	// line each, reconstructible by trace ID.
	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want >=2 slow-query lines, got %d:\n%s", len(lines), slow.String())
	}
	byPath := make(map[string]telemetry.SlowEntry)
	for _, line := range lines {
		var e telemetry.SlowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("slow line not JSON: %v\n%s", err, line)
		}
		if e.Trace != trace {
			t.Fatalf("slow line trace = %q, want %q", e.Trace, trace)
		}
		if e.Tier != "daemon" {
			t.Fatalf("slow line tier = %q, want daemon", e.Tier)
		}
		byPath[e.Path] = e
	}
	q, ok := byPath["/query"]
	if !ok || q.Status != http.StatusOK {
		t.Fatalf("no 200 /query slow line: %+v", byPath)
	}
	if q.Epoch <= 0 {
		t.Fatalf("/query slow line epoch = %d, want > 0", q.Epoch)
	}
	var stageSum float64
	for _, ms := range q.Stages {
		stageSum += ms
	}
	if stageSum <= 0 || stageSum > q.TotalMS {
		t.Fatalf("stage sum %.3fms must be positive and <= total %.3fms: %+v", stageSum, q.TotalMS, q)
	}
}

func TestNoMetricsDisablesEndpoint(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, StreamBound: 1 << 16, K: 1, Seed: 7, HighDim: true}
	eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{Engine: eng, Dim: 2, NoMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if srv.MetricsRegistry() != nil {
		t.Fatal("NoMetrics server still built a registry")
	}
	ts := newHTTPServer(t, srv)
	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with NoMetrics: HTTP %d, want 404", resp.StatusCode)
	}
}
