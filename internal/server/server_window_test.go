package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/window"
	"repro/pkg/sketch"
)

// readAll drains and closes a response body, failing the test on a
// non-200 status.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// windowedStream builds a stamped stream whose lower-half groups go
// silent partway through, so the trailing time window holds a strict
// subset of the groups.
func windowedStream(groups, steps int) (pts []geom.Point, stamps []int64) {
	for i := 0; i < steps; i++ {
		g := i % groups
		if g < groups/2 && i > steps*3/5 {
			g += groups / 2
		}
		pts = append(pts, geom.Point{float64(g%64) * 10, float64(g/64)*10 + float64(i%3)*0.1})
		stamps = append(stamps, int64(i+1))
	}
	return pts, stamps
}

func newWindowedServer(t *testing.T, opts core.Options, win window.Window, shards int, ckpt string) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.NewWindowSamplerEngine(opts, win, engine.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Dim: opts.Dim, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); eng.Close() })
	return ts, eng
}

// ingestStamped posts one binary batch with an explicit X-Sketch-Stamp.
func ingestStamped(t *testing.T, url string, pts []geom.Point, stamp int64) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/ingest", binaryBody(pts))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(StampHeader, fmt.Sprintf("%d", stamp))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ir := mustJSON[IngestResponse](t, resp, http.StatusOK)
	if ir.Ingested != len(pts) {
		t.Fatalf("ingested %d of %d points", ir.Ingested, len(pts))
	}
}

// TestWindowedServerEndToEnd drives a windowed daemon over HTTP: stamped
// ingest batches, window-restricted queries, GET /sketch round-tripping
// through Deserialize+Merge, a checkpoint, and a restart into a restored
// engine with a different shard count — all against a sequential
// WindowSampler fed the identical stamped stream.
func TestWindowedServerEndToEnd(t *testing.T) {
	const groups, steps = 200, 30_000
	pts, stamps := windowedStream(groups, steps)
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 29,
		StreamBound: steps + 1,
		Kappa:       64, // exact regime: live-group counts comparable one-for-one
	}
	win := window.Window{Kind: window.Time, W: 6000}

	seq, err := sketch.NewWindowL0(opts, win)
	if err != nil {
		t.Fatal(err)
	}
	seq.ProcessStampedBatch(pts, stamps)
	liveOf := func(wl *sketch.WindowL0) int {
		total := 0
		for _, n := range wl.WindowSampler().AcceptSizes() {
			total += n
		}
		return total
	}
	wantLive := liveOf(seq)

	ckpt := filepath.Join(t.TempDir(), "windowed.ckpt")
	ts, eng := newWindowedServer(t, opts, win, 4, ckpt)

	// Stamped batches: each chunk carries its last point's stamp, and the
	// sequential reference is fed the same quantized stamps.
	const chunk = 500
	seqQ, err := sketch.NewWindowL0(opts, win)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(pts); lo += chunk {
		hi := min(lo+chunk, len(pts))
		stamp := stamps[hi-1]
		ingestStamped(t, ts.URL, pts[lo:hi], stamp)
		for _, p := range pts[lo:hi] {
			seqQ.ProcessAt(p, stamp)
		}
	}

	// The query must answer and return a live-group sample.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	qr := mustJSON[QueryResponse](t, resp, http.StatusOK)
	if qr.Sample == nil {
		t.Fatal("windowed query returned no sample")
	}

	// GET /sketch → Deserialize → Merge: the federation round trip. The
	// exported snapshot must carry the windowed kind and merge into a
	// fresh sketch with the quantized sequential sampler's live count.
	resp, err = http.Get(ts.URL + "/sketch")
	if err != nil {
		t.Fatal(err)
	}
	blob := readAll(t, resp)
	if kind := resp.Header.Get("X-Sketch-Kind"); kind != "windowl0" {
		t.Fatalf("X-Sketch-Kind = %q, want windowl0", kind)
	}
	restored, err := sketch.Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sketch.NewWindowL0(opts, win)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Merge(restored); err != nil {
		t.Fatal(err)
	}
	if got, want := liveOf(fresh), liveOf(seqQ); got != want {
		t.Fatalf("deserialized+merged snapshot holds %d live groups, want %d", got, want)
	}
	// Batch-quantized stamps keep every truly live group alive (stamps
	// only move later), so the count matches the per-point reference too.
	if got := liveOf(fresh); got != wantLive {
		t.Fatalf("snapshot live groups %d != per-point sequential %d", got, wantLive)
	}

	// Checkpoint over HTTP, then restart into a *different* shard count.
	resp, err = http.Post(ts.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr := mustJSON[CheckpointResponse](t, resp, http.StatusOK)
	if cr.Points != int64(len(pts)) {
		t.Fatalf("checkpoint recorded %d points, want %d", cr.Points, len(pts))
	}
	eng.Drain()

	eng2, err := engine.NewWindowSamplerEngine(opts, win, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if err := eng2.RestoreFile(ckpt); err != nil {
		t.Fatal(err)
	}
	snap, err := eng2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := liveOf(snap.(*sketch.WindowL0)); got != wantLive {
		t.Fatalf("restored (resharded) snapshot holds %d live groups, want %d", got, wantLive)
	}
}

// TestWindowedServerClockStamping: without an explicit stamp header the
// server stamps batches with its configured clock, and expired groups
// drop out of queries as the clock advances.
func TestWindowedServerClockStamping(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: 1 << 10, Kappa: 64}
	win := window.Window{Kind: window.Time, W: 10}
	var now int64 = 100
	eng, err := engine.NewWindowSamplerEngine(opts, win, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: eng, Dim: 2, Clock: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() { ts.Close(); eng.Close() }()

	post := func(pts []geom.Point) {
		resp, err := http.Post(ts.URL+"/ingest", "application/octet-stream", binaryBody(pts))
		if err != nil {
			t.Fatal(err)
		}
		mustJSON[IngestResponse](t, resp, http.StatusOK)
	}
	post([]geom.Point{{0, 0}}) // stamped t=100
	now = 200
	post([]geom.Point{{50, 0}}) // stamped t=200: the first group expired
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		res, err := snap.Query()
		if err != nil {
			t.Fatal(err)
		}
		if res.Sample[0] != 50 {
			t.Fatalf("expired group sampled: %v", res.Sample)
		}
	}

	// A malformed stamp header is a client error.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest", binaryBody([]geom.Point{{1, 1}}))
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(StampHeader, "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad stamp header status %d, want 400", resp.StatusCode)
	}
}

// TestServerStampingFollowsEngine builds a daemon over each engine kind
// with no windowed setting: the server asks the engine whether to stamp.
// The windowed daemon honors X-Sketch-Stamp — its snapshot's clock is
// the latest stamp, and the group stamped a window behind drops out —
// while the plain daemon ingests a stamped batch like any other.
func TestServerStampingFollowsEngine(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: 1 << 10, Kappa: 64}
	ts, eng := newWindowedServer(t, opts, window.Window{Kind: window.Time, W: 100}, 2, "")
	ingestStamped(t, ts.URL, []geom.Point{{0, 0}}, 0)
	ingestStamped(t, ts.URL, []geom.Point{{50, 0}}, 1000)
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if now := snap.(interface{ Now() int64 }).Now(); now != 1000 {
		t.Fatalf("windowed snapshot clock %d, want the ingest stamp 1000", now)
	}
	for i := 0; i < 20; i++ {
		res, err := snap.Query()
		if err != nil {
			t.Fatal(err)
		}
		if res.Sample[0] != 50 {
			t.Fatalf("group stamped a window behind was sampled: %v", res.Sample)
		}
	}

	plain, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Engine: plain, Dim: opts.Dim})
	if err != nil {
		t.Fatal(err)
	}
	plainTS := httptest.NewServer(srv)
	defer func() { plainTS.Close(); plain.Close() }()
	ingestStamped(t, plainTS.URL, []geom.Point{{0, 0}}, 1000)
}
