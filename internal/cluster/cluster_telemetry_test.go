package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// traceRecorder wraps a peer handler and records the X-Sketch-Trace
// header of every request it serves, keyed by path. /watch long-polls
// are held until watchGate is closed, so no push reaches the gateway
// before the test lets it.
type traceRecorder struct {
	inner     http.Handler
	watchGate chan struct{}
	mu        sync.Mutex
	byP       map[string][]string
}

func (tr *traceRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr.mu.Lock()
	tr.byP[r.URL.Path] = append(tr.byP[r.URL.Path], r.Header.Get(telemetry.TraceHeader))
	tr.mu.Unlock()
	if r.URL.Path == "/watch" {
		select {
		case <-tr.watchGate:
		case <-r.Context().Done():
			return
		}
	}
	tr.inner.ServeHTTP(w, r)
}

// traces returns the recorded trace headers for one path.
func (tr *traceRecorder) traces(path string) []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]string(nil), tr.byP[path]...)
}

// slowSink is a mutex-guarded slow-log writer readable from the test.
type slowSink struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *slowSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *slowSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// parseExposition reads Prometheus text into a flat "name{labels}" map.
func parseExposition(t *testing.T, body io.Reader) map[string]float64 {
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

// TestTracePropagationEndToEnd is the observability acceptance scenario:
// one trace ID minted (or honored) at the gateway must be visible at
// every peer the request touched, on the response header, and in the
// slow-query log — one federated request reconstructible end to end
// from its ID alone. The peers hold the gateway's /watch long-polls until
// the end, so the traced query finds no fold and pays the scatter round
// itself; released, the background round carries the refresher's own ID.
func TestTracePropagationEndToEnd(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, StreamBound: 1 << 16, K: 4, Seed: 11, HighDim: true}

	// Three real daemons, each behind a middleware recording the trace
	// header of every request the gateway sends it.
	watchGate := make(chan struct{})
	recorders := make([]*traceRecorder, 3)
	urls := make([]string, 3)
	for i := range recorders {
		eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng, Dim: opts.Dim})
		if err != nil {
			t.Fatal(err)
		}
		rec := &traceRecorder{inner: srv, watchGate: watchGate, byP: make(map[string][]string)}
		ts := httptest.NewServer(rec)
		t.Cleanup(func() { ts.Close(); eng.Close() })
		recorders[i] = rec
		urls[i] = ts.URL
	}

	router, err := engine.NewRouterFromOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	var slow slowSink
	gw, err := New(Config{
		Peers:           urls,
		Router:          router,
		Dim:             opts.Dim,
		RequestTimeout:  5 * time.Second,
		Retries:         NoRetries,
		DownAfter:       1000,
		Trace:           true,
		SlowQuery:       time.Nanosecond, // every request logs
		SlowQueryWriter: &slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	t.Cleanup(gts.Close)
	t.Cleanup(gw.Close)

	// Routed ingest: the gateway mints an ID, echoes it, and forwards it
	// on every routed sub-batch.
	resp, err := http.Post(gts.URL+"/ingest", "application/x-ndjson", ndjsonBody(stream(96, 3, 11)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ingestTrace := resp.Header.Get(telemetry.TraceHeader)
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(ingestTrace) {
		t.Fatalf("gateway did not mint a trace ID on ingest: %q", ingestTrace)
	}
	for i, rec := range recorders {
		got := rec.traces("/ingest")
		if len(got) == 0 {
			t.Fatalf("peer %d received no routed ingest (96 groups should spread)", i)
		}
		for _, tr := range got {
			if tr != ingestTrace {
				t.Fatalf("peer %d saw ingest trace %q, gateway minted %q", i, tr, ingestTrace)
			}
		}
	}

	// Scattered query with a client-supplied ID: inbound wins over
	// minting, is echoed back, and rides every peer /sketch fetch.
	const queryTrace = "feedfacefeedfacefeedfacefeedface"
	qreq, _ := http.NewRequest("GET", gts.URL+"/query?k=2", nil)
	qreq.Header.Set(telemetry.TraceHeader, queryTrace)
	resp, err = http.DefaultClient.Do(qreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get(telemetry.TraceHeader); got != queryTrace {
		t.Fatalf("gateway echoed %q, client sent %q", got, queryTrace)
	}
	for i, rec := range recorders {
		got := rec.traces("/sketch")
		if len(got) == 0 {
			t.Fatalf("peer %d was not fetched during the scatter", i)
		}
		if got[len(got)-1] != queryTrace {
			t.Fatalf("peer %d fetch carried trace %q, want %q", i, got[len(got)-1], queryTrace)
		}
	}

	// The slow-query log reconstructs the same requests by trace ID with
	// per-stage timings and the fold's epoch vector.
	lines := strings.Split(strings.TrimSpace(slow.String()), "\n")
	byTrace := make(map[string][]telemetry.SlowEntry)
	for _, line := range lines {
		var e telemetry.SlowEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("slow line not JSON: %v\n%s", err, line)
		}
		if e.Tier != "gateway" {
			t.Fatalf("slow line tier %q, want gateway", e.Tier)
		}
		byTrace[e.Trace] = append(byTrace[e.Trace], e)
	}
	if len(byTrace[ingestTrace]) == 0 {
		t.Fatalf("no slow line for ingest trace %s:\n%s", ingestTrace, slow.String())
	}
	var qline *telemetry.SlowEntry
	for i := range byTrace[queryTrace] {
		if byTrace[queryTrace][i].Path == "/query" {
			qline = &byTrace[queryTrace][i]
		}
	}
	if qline == nil {
		t.Fatalf("no /query slow line for trace %s:\n%s", queryTrace, slow.String())
	}
	if qline.Status != http.StatusOK {
		t.Fatalf("query slow line status %d", qline.Status)
	}
	if len(qline.EpochVector) != 3 {
		t.Fatalf("epoch_vector %v, want one entry per peer", qline.EpochVector)
	}
	var stageSum float64
	for _, ms := range qline.Stages {
		stageSum += ms
	}
	if stageSum <= 0 || stageSum > qline.TotalMS {
		t.Fatalf("stage sum %.3fms must be positive and <= total %.3fms: %+v", stageSum, qline.TotalMS, qline)
	}
	if _, ok := qline.Stages["refresh"]; !ok {
		t.Fatalf("query slow line missing the refresh stage: %v", qline.Stages)
	}

	// The gateway's /metrics saw the same traffic the /stats counters did
	// and its scatter-stage histograms filled in.
	resp, err = http.Get(gts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := mustJSON[StatsResponse](t, resp, http.StatusOK)
	resp, err = http.Get(gts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := parseExposition(t, resp.Body)
	mirror := map[string]int64{
		"sketch_gateway_ingest_requests_total":   st.IngestRequests,
		"sketch_gateway_points_routed_total":     st.PointsRouted,
		"sketch_gateway_queries_total":           st.Queries,
		"sketch_gateway_peer_deserializes_total": st.PeerDeserializes,
		"sketch_gateway_sketch_merges_total":     st.SketchMerges,
		"sketch_gateway_peers":                   3,
		"sketch_gateway_peers_up":                int64(st.PeersUp),
	}
	for name, want := range mirror {
		if got, ok := m[name]; !ok || int64(got) != want {
			t.Errorf("%s = %g (present %v), /stats says %d", name, m[name], ok, want)
		}
	}
	for _, stage := range []string{"parse", "route", "forward", "refresh", "fetch", "deserialize", "merge", "answer"} {
		if m[`sketch_gateway_stage_seconds_count{stage="`+stage+`"}`] < 1 {
			t.Errorf("gateway stage %q recorded no observations", stage)
		}
	}
	if m[`sketch_gateway_stage_seconds_count{stage="fetch"}`] < 3 {
		t.Errorf("fetch stage count %g, want >= one per peer", m[`sketch_gateway_stage_seconds_count{stage="fetch"}`])
	}
	for i := range urls {
		key := `sketch_gateway_peer_requests_total{peer="` + urls[i] + `"}`
		if m[key] < 1 {
			t.Errorf("per-peer series %s missing or zero", key)
		}
	}

	// Released, the watchers push the ingest and the background round
	// re-fetches every peer under the refresher's own trace ID, while
	// each watcher tags its long-polls with its own.
	close(watchGate)
	waitFor(t, 10*time.Second, "a background round over every peer", func() bool {
		for _, rec := range recorders {
			got := rec.traces("/sketch")
			if !strings.HasPrefix(got[len(got)-1], "bg-") {
				return false
			}
		}
		return true
	})
	for i, rec := range recorders {
		for _, tr := range rec.traces("/watch") {
			if !strings.HasPrefix(tr, "watch"+strconv.Itoa(i)+"-") {
				t.Fatalf("peer %d saw watch trace %q, want the watcher's watch%d- ID", i, tr, i)
			}
		}
	}
}

// TestGatewayTraceDisabled checks the off switch: no minting, no echo,
// but inbound IDs still propagate (the daemon tier is honor-only and the
// gateway behaves the same with -trace=false).
func TestGatewayTraceDisabled(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, StreamBound: 1 << 16, K: 2, Seed: 3, HighDim: true}
	peers := newTestCluster(t, opts, 2, 1)
	_, gts := newTestGateway(t, opts, peers, nil) // Trace unset

	resp, err := http.Post(gts.URL+"/ingest", "application/x-ndjson", ndjsonBody(stream(16, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceHeader); got != "" {
		t.Fatalf("untraced gateway set %s: %q", telemetry.TraceHeader, got)
	}

	req, _ := http.NewRequest("GET", gts.URL+"/query?k=1", nil)
	req.Header.Set(telemetry.TraceHeader, "client-supplied-id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.TraceHeader); got != "client-supplied-id" {
		t.Fatalf("inbound trace not honored with minting off: %q", got)
	}
}

// The two tests below pin the /stats and /metrics contracts of both
// tiers. They live here because this is the package that builds both a
// daemon and a gateway.

// TestStatsShape checks, per tier, that GET /stats renders exactly the
// keys of the tier's StatsResponse, each with the JSON type its field
// decodes from. It runs with metrics on and with NoMetrics: /stats is
// rendered from the same declaration either way.
func TestStatsShape(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, StreamBound: 1 << 16, K: 2, Seed: 5, HighDim: true}
	for _, noMetrics := range []bool{false, true} {
		mode := "metrics"
		if noMetrics {
			mode = "nometrics"
		}
		t.Run("daemon/"+mode, func(t *testing.T) {
			eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(server.Config{Engine: eng, Dim: opts.Dim, NoMetrics: noMetrics})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(func() { ts.Close(); eng.Close() })
			checkStatsShape(t, ts.URL, reflect.TypeFor[server.StatsResponse]())
		})
		t.Run("gateway/"+mode, func(t *testing.T) {
			peers := newTestCluster(t, opts, 2, 1)
			_, gts := newTestGateway(t, opts, peers, func(c *Config) { c.NoMetrics = noMetrics })
			checkStatsShape(t, gts.URL, reflect.TypeFor[StatsResponse]())
		})
	}
}

// checkStatsShape compares the keys of GET base/stats with the json
// tags of typ in both directions, and each value's JSON type with the
// type encoding/json gives its field.
func checkStatsShape(t *testing.T, base string, typ reflect.Type) {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	got := mustJSON[map[string]json.RawMessage](t, resp, http.StatusOK)
	want := make(map[string]string, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch f.Type.Kind() {
		case reflect.Struct:
			want[key] = "object"
		case reflect.Slice:
			want[key] = "array"
		case reflect.String:
			want[key] = "string"
		case reflect.Bool:
			want[key] = "bool"
		default:
			want[key] = "number"
		}
	}
	for key, wt := range want {
		raw, ok := got[key]
		if !ok {
			t.Errorf("/stats lacks %q, a StatsResponse field", key)
			continue
		}
		if jt := jsonType(raw); jt != wt {
			t.Errorf("/stats %q is a JSON %s (%s), its StatsResponse field a %s", key, jt, raw, wt)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("/stats key %q has no StatsResponse field", key)
		}
	}
}

// jsonType names the JSON type of an encoded value.
func jsonType(raw json.RawMessage) string {
	switch raw[0] {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	default:
		return "number"
	}
}

// TestObservabilityDocListsFamilies checks the family tables of
// docs/observability.md against both tiers' registries: every
// registered family has a row whose kind column matches its # TYPE, and
// every row names a registered family.
func TestObservabilityDocListsFamilies(t *testing.T) {
	doc, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string) // family → kind column
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`sketch_") {
			continue
		}
		kind, _, _ := strings.Cut(strings.TrimSpace(cells[2]), ",")
		rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = kind
	}

	opts := core.Options{Alpha: 1, Dim: 2, StreamBound: 1 << 16, K: 2, Seed: 5, HighDim: true}
	eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.New(server.Config{Engine: eng, Dim: opts.Dim})
	if err != nil {
		t.Fatal(err)
	}
	gw, _ := newTestGateway(t, opts, newTestCluster(t, opts, 1, 1), nil)
	types := make(map[string]string) // family → # TYPE
	for _, reg := range []*telemetry.Registry{srv.MetricsRegistry(), gw.MetricsRegistry()} {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, typ, _ := strings.Cut(f, " ")
				types[name] = typ
			}
		}
	}
	for name, typ := range types {
		kind, ok := rows[name]
		if !ok {
			t.Errorf("family %s has no row in docs/observability.md", name)
		} else if kind != typ {
			t.Errorf("family %s: docs/observability.md says %q, # TYPE says %s", name, kind, typ)
		}
	}
	for name := range rows {
		if _, ok := types[name]; !ok {
			t.Errorf("docs/observability.md lists %s, which neither tier registers", name)
		}
	}
}
