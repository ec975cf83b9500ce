package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/telemetry"
	"repro/pkg/sketch"
)

// TestAbsorbEndpoint covers POST /sketch, the read-repair wire path: a
// serialized envelope folds into the live engine (estimate then covers
// both streams), the absorb bumps the served epoch, replays are
// idempotent, and malformed or mismatched envelopes are rejected without
// touching the engine.
func TestAbsorbEndpoint(t *testing.T) {
	const groups, dup = 200, 5
	pts := stream(groups, dup, 13)
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 37,
		StreamBound: len(pts) + 1,
		Kappa:       64, // exact regime
	}
	ts, eng := newL0Server(t, opts, 2, "")

	half := len(pts) / 2
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(pts[:half]))
	if err != nil {
		t.Fatal(err)
	}
	ir := mustJSON[IngestResponse](t, resp, http.StatusOK)
	if ir.Ingested != half {
		t.Fatalf("ingested %d of %d", ir.Ingested, half)
	}
	eng.Drain()
	epochBefore := eng.Epoch()

	// Build the "missed" half as a standalone sketch and ship it over the
	// wire, exactly as the gateway's read repair does.
	other, err := sketch.NewL0(opts)
	if err != nil {
		t.Fatal(err)
	}
	other.ProcessBatch(pts[half:])
	blob, err := other.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/sketch", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	ar := mustJSON[AbsorbResponse](t, resp, http.StatusOK)
	if ar.Kind != "l0" || ar.Epoch <= epochBefore {
		t.Fatalf("absorb response %+v (epoch before %d)", ar, epochBefore)
	}

	seq, err := sketch.NewL0(opts)
	if err != nil {
		t.Fatal(err)
	}
	seq.ProcessBatch(pts)
	want, err := seq.Query()
	if err != nil {
		t.Fatal(err)
	}
	after := mustJSON[QueryResponse](t, mustGetA(t, ts.URL+"/query"), http.StatusOK)
	if after.Estimate != want.Estimate {
		t.Fatalf("absorbed estimate %g, sequential full-stream %g", after.Estimate, want.Estimate)
	}

	// Replaying the same envelope is a no-op on the estimate.
	resp, err = http.Post(ts.URL+"/sketch", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	mustJSON[AbsorbResponse](t, resp, http.StatusOK)
	again := mustJSON[QueryResponse](t, mustGetA(t, ts.URL+"/query"), http.StatusOK)
	if again.Estimate != after.Estimate {
		t.Fatalf("re-absorb changed the estimate %g → %g", after.Estimate, again.Estimate)
	}

	st := mustJSON[StatsResponse](t, mustGetA(t, ts.URL+"/stats"), http.StatusOK)
	if st.SketchAbsorbs != 2 {
		t.Fatalf("sketch_absorbs %d, want 2", st.SketchAbsorbs)
	}

	// Garbage is a 400, and so is a current envelope of a retired
	// baseline kind (3), refused by kind: its payload is the l0 one just
	// absorbed. Neither moves the epoch or the absorb count. An
	// incompatible envelope (different α) is a 422.
	retired := append([]byte(nil), blob...)
	retired[5] = 3
	epochBefore = eng.Epoch()
	for _, body := range [][]byte{[]byte("not a sketch"), retired} {
		resp, err = http.Post(ts.URL+"/sketch", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("garbage absorb of %q status %d, want 400", body[:6], resp.StatusCode)
		}
	}
	st = mustJSON[StatsResponse](t, mustGetA(t, ts.URL+"/stats"), http.StatusOK)
	if eng.Epoch() != epochBefore || st.SketchAbsorbs != 2 {
		t.Fatalf("garbage absorbs moved epoch %d → %d, sketch_absorbs to %d", epochBefore, eng.Epoch(), st.SketchAbsorbs)
	}
	badOpts := opts
	badOpts.Alpha = 2
	mismatched, err := sketch.NewL0(badOpts)
	if err != nil {
		t.Fatal(err)
	}
	mismatched.ProcessBatch(pts[:10])
	badBlob, err := mismatched.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/sketch", "application/octet-stream", bytes.NewReader(badBlob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched absorb status %d, want 422", resp.StatusCode)
	}
	final := mustJSON[QueryResponse](t, mustGetA(t, ts.URL+"/query"), http.StatusOK)
	if final.Estimate != after.Estimate {
		t.Fatalf("rejected absorbs moved the estimate %g → %g", after.Estimate, final.Estimate)
	}
}

func mustGetA(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAbsorbSkipsIngestMetrics pins that read repair is not charged to
// the ingest metrics: a POST /sketch with no ingest leaves every
// /ingest request series and the ingest stage histogram empty, counts
// one absorb, and still logs the absorb's ingest stage on its
// slow-query line.
func TestAbsorbSkipsIngestMetrics(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, StreamBound: 1 << 16, K: 2, Seed: 7, HighDim: true}
	eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var slow syncBuffer
	srv, err := New(Config{Engine: eng, Dim: 2, SlowQuery: time.Nanosecond, SlowQueryWriter: &slow})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	other, err := sketch.NewL0(opts)
	if err != nil {
		t.Fatal(err)
	}
	other.ProcessBatch(stream(16, 2, 5))
	blob, err := other.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts+"/sketch", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	mustJSON[AbsorbResponse](t, resp, http.StatusOK)

	resp = mustGetA(t, ts+"/metrics")
	defer resp.Body.Close()
	m := parseMetrics(t, resp.Body)
	for _, key := range []string{
		`sketch_daemon_request_seconds_count{path="/ingest"}`,
		`sketch_daemon_stage_seconds_count{stage="ingest"}`,
		`sketch_daemon_request_seconds_count{path="/sketch"}`,
	} {
		got, ok := m[key]
		if !ok {
			t.Fatalf("%s missing from /metrics", key)
		}
		if got != 0 {
			t.Errorf("%s = %g after one absorb and no ingest, want 0", key, got)
		}
	}
	if m["sketch_daemon_sketch_absorbs_total"] != 1 {
		t.Errorf("sketch_daemon_sketch_absorbs_total = %g, want 1", m["sketch_daemon_sketch_absorbs_total"])
	}

	var e telemetry.SlowEntry
	if err := json.Unmarshal([]byte(strings.TrimSpace(slow.String())), &e); err != nil {
		t.Fatalf("want one slow-query line for the absorb: %v\n%s", err, slow.String())
	}
	if _, ok := e.Stages["ingest"]; e.Path != "/sketch" || !ok {
		t.Errorf("absorb slow-query line %+v, want path /sketch with an ingest stage", e)
	}
}
