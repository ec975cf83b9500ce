package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/pkg/sketch"
)

// stream builds numGroups well-separated groups (centers 10 apart, α=1)
// with the given duplication factor, shuffled.
func stream(numGroups, dup int, seed uint64) []geom.Point {
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	pts := make([]geom.Point, 0, numGroups*dup)
	for g := 0; g < numGroups; g++ {
		c := geom.Point{float64(g%64) * 10, float64(g/64) * 10}
		for d := 0; d < dup; d++ {
			pts = append(pts, geom.Point{
				c[0] + (rng.Float64()-0.5)*0.5,
				c[1] + (rng.Float64()-0.5)*0.5,
			})
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// ndjsonBody renders points as JSON-array lines.
func ndjsonBody(pts []geom.Point) *bytes.Buffer {
	var buf bytes.Buffer
	for _, p := range pts {
		blob, _ := json.Marshal([]float64(p))
		buf.Write(blob)
		buf.WriteByte('\n')
	}
	return &buf
}

// binaryBody renders points as packed little-endian float64s.
func binaryBody(pts []geom.Point) *bytes.Buffer {
	var buf bytes.Buffer
	for _, p := range pts {
		for _, v := range p {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			buf.Write(w[:])
		}
	}
	return &buf
}

func mustJSON[T any](t *testing.T, resp *http.Response, wantCode int) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if resp.StatusCode != wantCode {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d (want %d): %s", resp.StatusCode, wantCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func newL0Server(t *testing.T, opts core.Options, shards int, ckpt string) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: shards})
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

// TestEndToEndIngestQueryCheckpointRestore is the acceptance scenario:
// ingest 100k+ points over HTTP in concurrent batches (mixing the NDJSON
// and binary wire formats), check the sharded server's estimate against a
// sequential sampler, checkpoint over HTTP, restart onto a fresh engine
// with -restore semantics, and require the identical estimate.
func TestEndToEndIngestQueryCheckpointRestore(t *testing.T) {
	const groups, dup, producers = 2000, 50, 8
	pts := stream(groups, dup, 41) // 100_000 points
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 17,
		StreamBound: len(pts) + 1,
		Kappa:       128, // threshold ≥ groups: exact regime, estimates comparable point-for-point
	}

	seq, err := sketch.NewL0(opts)
	if err != nil {
		t.Fatal(err)
	}
	seq.ProcessBatch(pts)
	seqRes, err := seq.Query()
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "sketchd.ckpt")
	ts, _ := newL0Server(t, opts, 4, ckpt)

	// Concurrent ingest: each producer ships its slice in batches of 2500,
	// alternating between the two wire formats.
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	chunk := (len(pts) + producers - 1) / producers
	for w := 0; w < producers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(pts))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(id int, ps []geom.Point) {
			defer wg.Done()
			for i := 0; i < len(ps); i += 2500 {
				batch := ps[i:min(i+2500, len(ps))]
				var resp *http.Response
				var err error
				if (id+i)%2 == 0 {
					resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(batch))
				} else {
					resp, err = http.Post(ts.URL+"/ingest", "application/octet-stream", binaryBody(batch))
				}
				if err != nil {
					errs <- err
					return
				}
				var ir IngestResponse
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest status %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
					errs <- err
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				if ir.Ingested != len(batch) {
					errs <- fmt.Errorf("ingested %d of %d", ir.Ingested, len(batch))
					return
				}
			}
		}(w, pts[lo:hi])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// GET /sketch must export the merged snapshot in the versioned
	// envelope, deserializable to a sketch with the server's estimate.
	resp, err := http.Get(ts.URL + "/sketch")
	if err != nil {
		t.Fatal(err)
	}
	var sketchBlob bytes.Buffer
	if _, err := sketchBlob.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sketch-Kind") != "l0" {
		t.Fatalf("sketch status %d kind %q", resp.StatusCode, resp.Header.Get("X-Sketch-Kind"))
	}
	exported, err := sketch.Deserialize(sketchBlob.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/query?k=3")
	if err != nil {
		t.Fatal(err)
	}
	q := mustJSON[QueryResponse](t, resp, http.StatusOK)
	if rel := math.Abs(q.Estimate-seqRes.Estimate) / seqRes.Estimate; rel > 0.10 {
		t.Fatalf("server estimate %g deviates %.1f%% from sequential %g", q.Estimate, 100*rel, seqRes.Estimate)
	}
	if len(q.Samples) != 3 || q.Sample == nil || q.SpaceWords <= 0 {
		t.Fatalf("query response %+v", q)
	}
	if eres, err := exported.Query(); err != nil || eres.Estimate != q.Estimate {
		t.Fatalf("exported sketch estimates %v (%v), server answered %g", eres.Estimate, err, q.Estimate)
	}

	// The ingest-visibility contract (docs/server.md): an acknowledged
	// /ingest is only enqueued, /query and /sketch drain before answering,
	// and /stats is a point-in-time read — so the processed count is only
	// guaranteed to cover every acknowledged point after a query.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := mustJSON[StatsResponse](t, resp, http.StatusOK)
	if st.Engine.Processed != int64(len(pts)) || st.PointsIngested != int64(len(pts)) {
		t.Fatalf("stats after a query: processed=%d ingested=%d, want %d", st.Engine.Processed, st.PointsIngested, len(pts))
	}
	if st.RestoredFromCheckpoint {
		t.Fatal("cold-started server claims a checkpoint restore")
	}

	// Repeat queries must be served from the snapshot cache.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/query")
		if err != nil {
			t.Fatal(err)
		}
		mustJSON[QueryResponse](t, resp, http.StatusOK)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st = mustJSON[StatsResponse](t, resp, http.StatusOK)
	if st.Engine.SnapshotHits < 5 {
		t.Fatalf("snapshot cache hits = %d after repeated queries", st.Engine.SnapshotHits)
	}

	// Checkpoint over HTTP, then "restart": fresh engine, restore, fresh
	// server. The estimate is state-deterministic and must be identical.
	resp, err = http.Post(ts.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := mustJSON[CheckpointResponse](t, resp, http.StatusOK)
	if ck.Path != ckpt || ck.Bytes <= 0 || ck.Points != int64(len(pts)) {
		t.Fatalf("checkpoint response %+v", ck)
	}
	preRestart := q.Estimate

	ts.Close()
	eng2, err := engine.NewSamplerEngine(opts, engine.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if err := eng2.RestoreFile(ckpt); err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Engine: eng2, Dim: opts.Dim, CheckpointPath: ckpt, Restored: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	q2 := mustJSON[QueryResponse](t, resp, http.StatusOK)
	if q2.Estimate != preRestart {
		t.Fatalf("post-restore estimate %g != pre-restart %g", q2.Estimate, preRestart)
	}
	resp, err = http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st2 := mustJSON[StatsResponse](t, resp, http.StatusOK)
	if st2.Engine.Enqueued != int64(len(pts)) {
		t.Fatalf("restored engine reports %d points, want %d", st2.Engine.Enqueued, len(pts))
	}
	if !st2.RestoredFromCheckpoint || st2.StartedAt == "" || st2.UptimeSeconds < 0 {
		t.Fatalf("restored stats %+v", st2)
	}
}

func TestIngestRejectsMalformedBodies(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 3, StreamBound: 1 << 10}
	ts, eng := newL0Server(t, opts, 2, "")

	cases := []struct {
		name, ct, body string
	}{
		{"wrong dim text", "text/plain", "1 2 3\n"},
		{"wrong dim json", "application/x-ndjson", "[1, 2, 3]\n"},
		{"bad json", "application/x-ndjson", "[1, oops]\n"},
		{"bad number", "text/plain", "1 x\n"},
		{"non-finite", "text/plain", "1 NaN\n"},
		{"binary misaligned", "application/octet-stream", "12345"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/ingest", tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if got := eng.Stats().Enqueued; got != 0 {
		t.Fatalf("malformed bodies ingested %d points", got)
	}

	// Comments, blank lines, and an empty batch are all fine.
	resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader("# warmup\n\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	ir := mustJSON[IngestResponse](t, resp, http.StatusOK)
	if ir.Ingested != 1 {
		t.Fatalf("ingested %d, want 1", ir.Ingested)
	}
	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	ir = mustJSON[IngestResponse](t, resp, http.StatusOK)
	if ir.Ingested != 0 {
		t.Fatalf("empty body ingested %d", ir.Ingested)
	}
}

func TestQueryAndCheckpointErrors(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 3, StreamBound: 1 << 10}
	ts, _ := newL0Server(t, opts, 2, "")

	// Empty engine: nothing to answer from.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("empty query status %d, want 409", resp.StatusCode)
	}

	// Bad k.
	resp, err = http.Get(ts.URL + "/query?k=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad k status %d, want 400", resp.StatusCode)
	}

	// k>1 against a family without multi-sampling is a client error.
	f0eng, err := engine.NewF0Engine(opts, 0.5, 3, engine.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	f0srv, err := New(Config{Engine: f0eng, Dim: opts.Dim})
	if err != nil {
		t.Fatal(err)
	}
	f0ts := httptest.NewServer(f0srv)
	defer func() { f0ts.Close(); f0eng.Close() }()
	f0eng.ProcessBatch(stream(20, 3, 2))
	resp, err = http.Get(f0ts.URL + "/query?k=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unsupported k status %d, want 400", resp.StatusCode)
	}

	// Checkpointing disabled without a configured path.
	resp, err = http.Post(ts.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("checkpoint status %d, want 501", resp.StatusCode)
	}

	// Health always answers.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}
