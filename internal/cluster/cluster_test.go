package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
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

func mustJSON[T any](t *testing.T, resp *http.Response, wantCode int) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if resp.StatusCode != wantCode {
		var e server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("status %d (want %d): %s", resp.StatusCode, wantCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// testPeer is one in-process sketchd: engine + server + httptest server.
type testPeer struct {
	eng *engine.Engine
	ts  *httptest.Server
}

// newTestCluster spins up n in-process sketchd peers over opts.
func newTestCluster(t *testing.T, opts core.Options, n, shards int) []*testPeer {
	t.Helper()
	peers := make([]*testPeer, n)
	for i := range peers {
		eng, err := engine.NewSamplerEngine(opts, engine.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng, Dim: opts.Dim})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		peers[i] = &testPeer{eng: eng, ts: ts}
		t.Cleanup(func() { ts.Close(); eng.Close() })
	}
	return peers
}

// kill takes the peer down the way a crashed process goes: no new
// connections, and open ones — the gateway's parked /watch long-polls
// included, which a plain Close would wait out — reset.
func (p *testPeer) kill() {
	p.ts.Listener.Close()
	p.ts.CloseClientConnections()
	p.ts.Close()
}

// newTestGateway builds a gateway over the peers with the same routing
// options the peers shard by. Its long-polls are short: closing a peer's
// httptest.Server waits out every /watch parked on it.
func newTestGateway(t *testing.T, opts core.Options, peers []*testPeer, mut func(*Config)) (*Gateway, *httptest.Server) {
	t.Helper()
	router, err := engine.NewRouterFromOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.ts.URL
	}
	cfg := Config{
		Peers:          urls,
		Router:         router,
		Dim:            opts.Dim,
		RequestTimeout: 5 * time.Second,
		Retries:        NoRetries, // deterministic failures in tests
		DownAfter:      1000,
		WatchTimeout:   time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	t.Cleanup(gw.Close) // LIFO: watchers stop before their server goes away
	return gw, ts
}

// settle waits until the gateway's answer holds still at staleness 0
// over a fold built from every peer's current ingest epoch (peers in the
// gateway's peer order) — everything ingested so far is folded — and
// returns that answer.
func settle(t *testing.T, url string, peers []*testPeer) QueryResponse {
	t.Helper()
	return holdStill(t, url, "gateway to settle on every peer's current epoch", func(_ QueryResponse, hdr http.Header) bool {
		epochs := make([]string, len(peers))
		for i, p := range peers {
			epochs[i] = strconv.FormatInt(p.eng.Epoch(), 10)
		}
		return hdr.Get(EpochVectorHeader) == strings.Join(epochs, ",")
	})
}

// TestClusterFederationEndToEnd is the acceptance scenario: 100k points
// ingested through the gateway in concurrent batches (mixing wire
// formats) land on exactly one of 3 peers each, and the federated
// scatter-gather estimate matches a single sequential sampler on the
// identical stream.
func TestClusterFederationEndToEnd(t *testing.T) {
	const groups, dup, producers = 2000, 50, 8
	pts := stream(groups, dup, 41) // 100_000 points
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 17,
		StreamBound: len(pts) + 1,
		Kappa:       128, // threshold ≥ groups: exact regime, estimates comparable
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

	peers := newTestCluster(t, opts, 3, 2)
	_, ts := newTestGateway(t, opts, peers, nil)

	// Concurrent ingest through the gateway, alternating wire formats.
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
					resp, err = http.Post(ts.URL+"/ingest", pointio.BinaryContentType,
						bytes.NewReader(pointio.AppendBinaryBatch(nil, batch)))
				}
				if err != nil {
					errs <- err
					return
				}
				var ir server.IngestResponse
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

	// Routed ingest lands every point on exactly one peer: the per-peer
	// engine counters partition the stream.
	var routedTotal int64
	for i, p := range peers {
		n := p.eng.Enqueued()
		if n == 0 {
			t.Fatalf("peer %d received no points — routing is not spreading", i)
		}
		routedTotal += n
	}
	if routedTotal != int64(len(pts)) {
		t.Fatalf("peers hold %d points in total, want exactly %d", routedTotal, len(pts))
	}

	// Federated query vs the sequential sampler, once the concurrent
	// ingest's pushes are folded.
	settle(t, ts.URL, peers)
	resp, err := http.Get(ts.URL + "/query?k=3")
	if err != nil {
		t.Fatal(err)
	}
	q := mustJSON[QueryResponse](t, resp, http.StatusOK)
	if q.Partial || q.PeersOK != 3 || q.PeersTotal != 3 || len(q.FailedPeers) != 0 {
		t.Fatalf("healthy-cluster fanout metadata %+v", q)
	}
	if rel := math.Abs(q.Estimate-seqRes.Estimate) / seqRes.Estimate; rel > 0.10 {
		t.Fatalf("federated estimate %g deviates %.1f%% from sequential %g", q.Estimate, 100*rel, seqRes.Estimate)
	}
	if len(q.Samples) != 3 || q.Sample == nil || q.SpaceWords <= 0 {
		t.Fatalf("query response %+v", q)
	}

	// The gateway's own /sketch re-exports the federated union: it must
	// deserialize to a sketch with the same estimate (gateway stacking).
	resp, err = http.Get(ts.URL + "/sketch")
	if err != nil {
		t.Fatal(err)
	}
	blob := new(bytes.Buffer)
	if _, err := blob.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sketch-Kind") != "l0" {
		t.Fatalf("sketch status %d kind %q", resp.StatusCode, resp.Header.Get("X-Sketch-Kind"))
	}
	restored, err := sketch.Deserialize(blob.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rres, err := restored.Query()
	if err != nil {
		t.Fatal(err)
	}
	if rres.Estimate != q.Estimate {
		t.Fatalf("re-exported sketch estimates %g, gateway answered %g", rres.Estimate, q.Estimate)
	}

	// Gateway stats: all peers up, traffic accounted.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := mustJSON[StatsResponse](t, resp, http.StatusOK)
	if st.PeersUp != 3 || st.PointsRouted != int64(len(pts)) || st.Queries < 2 {
		t.Fatalf("gateway stats %+v", st)
	}

	// Healthz: fully healthy.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestClusterFederationF0 covers the estimator family end to end: 3 F0
// peers behind the gateway must produce a federated estimate tracking a
// single sequential F0 sketch on the identical stream (serialize →
// Deserialize → Merge across daemons, copy by copy).
func TestClusterFederationF0(t *testing.T) {
	const eps, copies = 0.25, 9
	pts := stream(500, 20, 11) // 10_000 points, 500 groups
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 23, StreamBound: len(pts) + 1}

	seq, err := sketch.NewF0(opts, eps, copies)
	if err != nil {
		t.Fatal(err)
	}
	seq.ProcessBatch(pts)
	seqRes, err := seq.Query()
	if err != nil {
		t.Fatal(err)
	}

	peers := make([]*testPeer, 3)
	for i := range peers {
		eng, err := engine.NewF0Engine(opts, eps, copies, engine.Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Engine: eng, Dim: opts.Dim})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		peers[i] = &testPeer{eng: eng, ts: ts}
		t.Cleanup(func() { ts.Close(); eng.Close() })
	}
	_, ts := newTestGateway(t, opts, peers, nil)

	resp, err := http.Post(ts.URL+"/ingest", pointio.BinaryContentType,
		bytes.NewReader(pointio.AppendBinaryBatch(nil, pts)))
	if err != nil {
		t.Fatal(err)
	}
	ir := mustJSON[server.IngestResponse](t, resp, http.StatusOK)
	if ir.Ingested != len(pts) {
		t.Fatalf("ingested %d of %d", ir.Ingested, len(pts))
	}

	q := settle(t, ts.URL, peers)
	if q.Partial || q.PeersOK != 3 {
		t.Fatalf("fanout metadata %+v", q)
	}
	if rel := math.Abs(q.Estimate-seqRes.Estimate) / seqRes.Estimate; rel > 0.15 {
		t.Fatalf("federated F0 estimate %g deviates %.1f%% from sequential %g",
			q.Estimate, 100*rel, seqRes.Estimate)
	}
}

// TestClusterPartialFailure kills one of 3 peers and requires the
// degrade policy to answer with partial=true, the fail policy to refuse
// with 502, and /healthz to report degradation — once the staleness
// bound stops them serving the complete fold from before the kill.
func TestClusterPartialFailure(t *testing.T) {
	pts := stream(200, 20, 7)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: len(pts) + 1, Kappa: 128}

	peers := newTestCluster(t, opts, 3, 2)
	shortStale := func(c *Config) { c.MaxStale = 100 * time.Millisecond }
	gw, degradeTS := newTestGateway(t, opts, peers, shortStale)
	_, failTS := newTestGateway(t, opts, peers, func(c *Config) {
		shortStale(c)
		c.Partial = PartialFail
	})

	// Seed every peer directly (via the gateway's own routing function) so
	// the dead peer's points are genuinely missing from degraded answers.
	for _, p := range pts {
		peers[gw.placement.Primary(gw.cfg.Router.Route(p))].eng.Process(p)
	}

	full := settle(t, degradeTS.URL, peers)
	if full.Partial || full.PeersOK != 3 {
		t.Fatalf("healthy query %+v", full)
	}
	settle(t, failTS.URL, peers)

	peers[1].kill() // peer 1 goes dark

	var q QueryResponse
	waitFor(t, 10*time.Second, "the degrade policy to answer partial", func() bool {
		q, _ = getQuery(t, degradeTS.URL)
		return q.Partial
	})
	if q.PeersOK != 2 || len(q.FailedPeers) != 1 || q.FailedPeers[0] != peers[1].ts.URL {
		t.Fatalf("degraded query %+v", q)
	}
	if q.Estimate <= 0 || q.Estimate >= full.Estimate {
		t.Fatalf("degraded estimate %g should be positive and below the full %g", q.Estimate, full.Estimate)
	}

	waitFor(t, 10*time.Second, "the fail policy to refuse with 502", func() bool {
		resp := mustGet(t, failTS.URL+"/query")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("fail-policy query status %d, want 502 (or 200 while the complete fold is within max-stale)", resp.StatusCode)
		}
		return resp.StatusCode == http.StatusBadGateway
	})

	// A partial /sketch export is flagged, not silent.
	resp := mustGet(t, degradeTS.URL+"/sketch")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sketch-Partial") != "true" {
		t.Fatalf("partial sketch status %d partial-header %q", resp.StatusCode, resp.Header.Get("X-Sketch-Partial"))
	}

	// Routed ingest for the dead peer's cells fails loudly; other points
	// still land (retry of the whole batch is documented as safe).
	var deadBatch []geom.Point
	for _, p := range pts {
		if gw.placement.Primary(gw.cfg.Router.Route(p)) == 1 {
			deadBatch = append(deadBatch, p)
			break
		}
	}
	resp, err := http.Post(degradeTS.URL+"/ingest", pointio.BinaryContentType,
		bytes.NewReader(pointio.AppendBinaryBatch(nil, deadBatch)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("ingest to dead peer status %d, want 502", resp.StatusCode)
	}

	// Stacked gateways must propagate partiality, not launder it: a
	// top-tier gateway whose only peer is the degraded gateway sees its
	// X-Sketch-Partial flag and reports the answer partial too.
	_, topTS := newTestGateway(t, opts, nil, func(c *Config) { c.Peers = []string{degradeTS.URL} })
	tq := mustJSON[QueryResponse](t, mustGet(t, topTS.URL+"/query"), http.StatusOK)
	if !tq.Partial || tq.PeersOK != 1 || len(tq.DegradedPeers) != 1 || tq.DegradedPeers[0] != degradeTS.URL {
		t.Fatalf("stacked gateway laundered partiality: %+v", tq)
	}

	// And under PartialFail, the top tier refuses the degraded upstream.
	_, topFailTS := newTestGateway(t, opts, nil, func(c *Config) {
		c.Peers = []string{degradeTS.URL}
		c.Partial = PartialFail
	})
	resp = mustGet(t, topFailTS.URL+"/query")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("stacked fail-policy query status %d, want 502", resp.StatusCode)
	}
}

// TestCircuitBreaker verifies the health tracker: after DownAfter
// consecutive failures — the peer's watcher alone drives them — the peer
// is skipped (no request issued) until the cooldown elapses, after which
// the next request probes it again and its success closes the breaker.
func TestCircuitBreaker(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 3, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	peers[0].eng.Process(geom.Point{1, 2})
	peers[1].eng.Process(geom.Point{50, 50})

	// Peer 1 sits behind a toggleable proxy so it can fail and recover.
	var down atomic.Bool
	proxy := forwardProxy(t, peers[1].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
		if down.Load() && !strings.HasPrefix(path, "post:") {
			// 503: a transient, health-relevant outage (500 would mean the
			// peer is alive and answering deterministically — not charged).
			return true, func(w http.ResponseWriter) {
				http.Error(w, `{"error":"injected outage"}`, http.StatusServiceUnavailable)
			}
		}
		return false, nil
	})

	gw, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Peers = []string{peers[0].ts.URL, proxy.URL}
		c.DownAfter = 2
		// Nothing probes the open breaker on its own; the test elapses the
		// cooldown by hand.
		c.DownCooldown = time.Hour
		c.MaxStale = 100 * time.Millisecond
	})
	quiesce(t, ts.URL, 2)

	down.Store(true)
	proxy.CloseClientConnections() // the parked long-poll meets the outage at once
	waitFor(t, 10*time.Second, "watch failures to open the breaker", func() bool {
		return !gwStats(t, ts.URL).Peers[1].Up
	})
	waitFor(t, 10*time.Second, "queries past max-stale to degrade", func() bool {
		q, _ := getQuery(t, ts.URL)
		return q.Partial
	})
	reqsWhenOpen := gw.peers[1].requests.Load()
	for i := 0; i < 3; i++ {
		time.Sleep(150 * time.Millisecond) // past max-stale: every query runs a scatter round
		if q, _ := getQuery(t, ts.URL); !q.Partial {
			t.Fatalf("open-breaker query %d not partial: %+v", i, q)
		}
	}
	if got := gw.peers[1].requests.Load(); got != reqsWhenOpen {
		t.Fatalf("open breaker still issued requests (%d → %d)", reqsWhenOpen, got)
	}
	resp := mustGet(t, ts.URL+"/healthz")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz status %d, want 200", resp.StatusCode)
	}

	// Recovery: cooldown elapses, peer answers again, breaker closes.
	down.Store(false)
	gw.peers[1].downUntil.Store(time.Now().UnixNano())
	waitFor(t, 10*time.Second, "the probed peer to rejoin the fold", func() bool {
		q, _ := getQuery(t, ts.URL)
		return !q.Partial && q.PeersOK == 2 && q.Estimate == 2
	})
}

// TestGatewayRejectsMalformedIngest pins that bad bodies are rejected at
// the gateway without touching any peer.
func TestGatewayRejectsMalformedIngest(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 3, StreamBound: 1 << 10}
	peers := newTestCluster(t, opts, 2, 1)
	_, ts := newTestGateway(t, opts, peers, nil)

	for _, body := range []string{"1 2 3\n", "[1, oops]\n", "1 NaN\n"} {
		resp, err := http.Post(ts.URL+"/ingest", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	for i, p := range peers {
		if n := p.eng.Enqueued(); n != 0 {
			t.Fatalf("peer %d ingested %d points from malformed bodies", i, n)
		}
	}

	// Empty engines federate fine but have nothing to answer: 409, the
	// same contract as a single daemon.
	resp := mustGet(t, ts.URL+"/query")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("empty-cluster query status %d, want 409", resp.StatusCode)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
