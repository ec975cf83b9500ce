package server_test

// Freshness e2e suite: GET /sketch and GET /query stamp responses with
// the snapshot's ingest epoch, ignore If-None-Match (a conditional GET
// gets the full answer, never a 304), and /sketch serves the serialized
// envelope from a per-epoch cache — ingesting anything (and only that)
// moves the epoch and invalidates the cache.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/pkg/sketch"
)

// newCacheTestServer spins up an in-process daemon over a 2-shard
// sampler engine.
func newCacheTestServer(t *testing.T) (*engine.Engine, *httptest.Server) {
	t.Helper()
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 9, StreamBound: 1 << 12, Kappa: 128}
	eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); eng.Close() })
	return eng, ts
}

func ingestPoints(t *testing.T, url string, pts []geom.Point) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", pointio.BinaryContentType,
		bytes.NewReader(pointio.AppendBinaryBatch(nil, pts)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
}

// condGet issues a GET with an optional If-None-Match header and
// returns the response with the body read.
func condGet(t *testing.T, url, inm string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func serverStats(t *testing.T, url string) server.StatsResponse {
	t.Helper()
	resp, body := condGet(t, url+"/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// freshGet issues a GET with If-None-Match: * and checks the contract:
// a 200 with a body, stamped with X-Sketch-Epoch and carrying no ETag.
// It returns the body and the epoch.
func freshGet(t *testing.T, url string) ([]byte, int64) {
	t.Helper()
	resp, body := condGet(t, url, "*")
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("GET %s with If-None-Match: status %d, %d body bytes; want 200 with a body",
			url, resp.StatusCode, len(body))
	}
	if etag := resp.Header.Get("ETag"); etag != "" {
		t.Fatalf("GET %s served ETag %q", url, etag)
	}
	epoch, err := strconv.ParseInt(resp.Header.Get(server.EpochHeader), 10, 64)
	if err != nil || epoch < 1 {
		t.Fatalf("GET %s: bad %s %q", url, server.EpochHeader, resp.Header.Get(server.EpochHeader))
	}
	return body, epoch
}

// TestSketchConditionalGet pins /sketch's freshness contract: a request
// with If-None-Match gets the full envelope, stamped with the ingest
// epoch; a quiescent engine serves it from the per-epoch marshal cache,
// and an ingest advances the epoch and re-serializes.
func TestSketchConditionalGet(t *testing.T) {
	_, ts := newCacheTestServer(t)
	ingestPoints(t, ts.URL, []geom.Point{{1, 2}, {50, 50}, {1.1, 2.1}})

	body1, epoch := freshGet(t, ts.URL+"/sketch")
	if _, err := sketch.Deserialize(body1); err != nil {
		t.Fatalf("body is not a sketch envelope: %v", err)
	}

	// A quiescent re-fetch: the same epoch and bytes, served from the
	// per-epoch marshal cache.
	body2, epoch2 := freshGet(t, ts.URL+"/sketch")
	if epoch2 != epoch || !bytes.Equal(body1, body2) {
		t.Fatal("quiescent /sketch changed its representation")
	}
	st := serverStats(t, ts.URL)
	if st.SketchCacheHits < 1 || st.SketchCacheMisses != 1 {
		t.Fatalf("marshal cache hits/misses = %d/%d, want ≥1/1", st.SketchCacheHits, st.SketchCacheMisses)
	}

	// An ingest advances the epoch and invalidates the marshal cache.
	ingestPoints(t, ts.URL, []geom.Point{{200, 200}})
	body3, epoch3 := freshGet(t, ts.URL+"/sketch")
	if epoch3 <= epoch {
		t.Fatalf("epoch did not advance: %d → %d", epoch, epoch3)
	}
	if bytes.Equal(body3, body1) {
		t.Fatal("post-ingest /sketch served the pre-ingest envelope")
	}
	if st = serverStats(t, ts.URL); st.SketchCacheMisses != 2 {
		t.Fatalf("marshal cache misses = %d after an ingest, want 2", st.SketchCacheMisses)
	}
}

// TestQueryConditionalGet pins /query's freshness contract: a request
// with If-None-Match gets the full answer with a sample drawn afresh,
// ?k= variants answer under the same epoch, and an ingest advances the
// epoch and the estimate.
func TestQueryConditionalGet(t *testing.T) {
	_, ts := newCacheTestServer(t)
	ingestPoints(t, ts.URL, []geom.Point{{1, 2}, {50, 50}, {100, 100}})

	query := func(url string) (server.QueryResponse, int64) {
		t.Helper()
		body, epoch := freshGet(t, url)
		var q server.QueryResponse
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatal(err)
		}
		return q, epoch
	}
	q, epoch := query(ts.URL + "/query")
	if q.Estimate != 3 || len(q.Sample) != 2 {
		t.Fatalf("answer %+v, want estimate 3 with a sample", q)
	}

	// Repeats at the same epoch draw their samples afresh: over three
	// groups, 50 draws that all agree would mean a replayed answer.
	fresh := false
	for i := 0; i < 50 && !fresh; i++ {
		r, ep := query(ts.URL + "/query")
		if ep != epoch || r.Estimate != q.Estimate {
			t.Fatalf("quiescent repeat: epoch %d estimate %g, want %d and %g", ep, r.Estimate, epoch, q.Estimate)
		}
		fresh = !slices.Equal(r.Sample, q.Sample)
	}
	if !fresh {
		t.Fatal("50 repeated queries returned the same sample")
	}

	// A multi-sample variant answers under the same epoch.
	if qk, ep := query(ts.URL + "/query?k=2"); ep != epoch || len(qk.Samples) != 2 {
		t.Fatalf("k=2: epoch %d with %d samples, want %d with 2", ep, len(qk.Samples), epoch)
	}

	ingestPoints(t, ts.URL, []geom.Point{{300, 300}})
	q, epoch4 := query(ts.URL + "/query")
	if epoch4 <= epoch {
		t.Fatalf("epoch did not advance: %d → %d", epoch, epoch4)
	}
	if q.Estimate != 4 {
		t.Fatalf("post-ingest estimate %g, want 4 (stale cache?)", q.Estimate)
	}
}
