package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/telemetry"
	"repro/internal/window"
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

// FuzzAbsorb posts arbitrary bodies to POST /sketch on a 2-shard l0
// daemon that already holds ingested points. No input may panic, and
// the status must be 200, 400, 413 or 422. A refused absorb must leave
// the epoch, sketch_absorbs and every shard's state as they were. The
// shards are compared through a serialized Engine.Snapshot, because the
// cached answer would hide a partial absorb: Engine.Absorb merges one
// shard at a time and bumps the epoch only at the end.
func FuzzAbsorb(f *testing.F) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 37, StreamBound: 1 << 10}
	pts := stream(60, 3, 13)
	serialize := func(s sketch.Sketch) []byte {
		blob, err := s.Serialize()
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	own, err := sketch.NewL0(opts)
	if err != nil {
		f.Fatal(err)
	}
	own.ProcessBatch(stream(40, 2, 14))
	otherOpts := opts
	otherOpts.Seed = 38
	other, err := sketch.NewL0(otherOpts)
	if err != nil {
		f.Fatal(err)
	}
	other.ProcessBatch(stream(40, 2, 14))
	windowed, err := sketch.NewWindowL0(opts, window.Window{Kind: window.Time, W: 100})
	if err != nil {
		f.Fatal(err)
	}
	wpts := stream(20, 2, 15)
	stamps := make([]int64, len(wpts))
	for i := range stamps {
		stamps[i] = int64(i + 1)
	}
	windowed.ProcessStampedBatch(wpts, stamps)
	ownBlob := serialize(own)
	kind3 := append([]byte(nil), ownBlob...)
	kind3[5] = 3 // a retired baseline kind over an l0 payload
	f.Add(ownBlob)
	f.Add(serialize(other))
	f.Add(serialize(windowed))
	f.Add(ownBlob[:len(ownBlob)/2])
	f.Add(kind3)

	f.Fuzz(func(t *testing.T, body []byte) {
		eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.ProcessBatch(pts)
		srv, err := New(Config{Engine: eng, Dim: opts.Dim})
		if err != nil {
			t.Fatal(err)
		}
		state := func() []byte {
			snap, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := snap.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}
		shards, epoch := state(), eng.Epoch()

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sketch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			return
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("absorb answered %d, want 200, 400, 413 or 422: %s", rec.Code, rec.Body)
		}
		if n := srv.sketchAbsorbs.Load(); n != 0 {
			t.Fatalf("refused absorb (%d) counted in sketch_absorbs = %d", rec.Code, n)
		}
		if e := eng.Epoch(); e != epoch {
			t.Fatalf("refused absorb (%d) moved the epoch %d → %d", rec.Code, epoch, e)
		}
		if !bytes.Equal(state(), shards) {
			t.Fatalf("refused absorb (%d) changed the shards' state: %s", rec.Code, rec.Body)
		}
	})
}
