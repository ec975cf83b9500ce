package cluster

// Federated-cache e2e suite. The acceptance property of the cache: a
// fully-quiescent cluster answers repeated queries with zero peer-sketch
// deserializations and zero merges (proven by the /stats counters), and
// an ingest on one peer invalidates exactly that peer's entry — the
// round that folds it revalidates the others with 304s.

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pointio"
)

// gwStats fetches the gateway's /stats.
func gwStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp := mustGet(t, url+"/stats")
	return mustJSON[StatsResponse](t, resp, http.StatusOK)
}

// withoutSamples drops a query answer's samples, which each query draws
// afresh, leaving the fields a repeat over an unchanged fold must match.
func withoutSamples(q QueryResponse) QueryResponse {
	q.Sample, q.Samples = nil, nil
	return q
}

// TestFederatedCacheWarmPath is the acceptance scenario: once the fold
// has settled, repeated queries against quiescent peers are served from
// it with zero peer round trips, zero deserializations and zero merges.
func TestFederatedCacheWarmPath(t *testing.T) {
	pts := stream(200, 10, 29)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 13, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 3, 2)
	_, ts := newTestGateway(t, opts, peers, nil)

	resp, err := http.Post(ts.URL+"/ingest", pointio.BinaryContentType,
		bytes.NewReader(pointio.AppendBinaryBatch(nil, pts)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	q1 := settle(t, ts.URL, peers)
	if q1.Partial || q1.PeersOK != 3 || q1.Estimate != 200 {
		t.Fatalf("settled query %+v", q1)
	}
	cold := gwStats(t, ts.URL)
	// Every fold decoded one receiver plus each peer envelope that moved
	// (all three at least once) and merged the other two peers into it.
	if cold.FedCacheMisses < 1 || cold.SketchMerges != 2*cold.FedCacheMisses ||
		cold.PeerDeserializes < cold.FedCacheMisses+3 {
		t.Fatalf("fold counters: deserializes=%d merges=%d misses=%d, want ≥ misses+3 / 2×misses / ≥ 1",
			cold.PeerDeserializes, cold.SketchMerges, cold.FedCacheMisses)
	}

	for i := 0; i < 3; i++ {
		q := mustJSON[QueryResponse](t, mustGet(t, ts.URL+"/query"), http.StatusOK)
		if !reflect.DeepEqual(withoutSamples(q), withoutSamples(q1)) {
			t.Fatalf("warm query %d differs from cold answer:\n%+v\nvs\n%+v", i, q, q1)
		}
	}
	warm := gwStats(t, ts.URL)
	if warm.PeerDeserializes != cold.PeerDeserializes || warm.SketchMerges != cold.SketchMerges {
		t.Fatalf("warm queries touched peer sketches: deserializes %d→%d merges %d→%d",
			cold.PeerDeserializes, warm.PeerDeserializes, cold.SketchMerges, warm.SketchMerges)
	}
	if warm.StaleServes != cold.StaleServes+3 {
		t.Fatalf("warm serves: stale %d→%d, want +3", cold.StaleServes, warm.StaleServes)
	}
	if warm.PeerNotModified != cold.PeerNotModified || warm.FedCacheHits != cold.FedCacheHits {
		t.Fatalf("warm queries ran scatter rounds: peer_not_modified %d→%d fed_cache_hits %d→%d",
			cold.PeerNotModified, warm.PeerNotModified, cold.FedCacheHits, warm.FedCacheHits)
	}

	// A different ?k= reuses the fold but computes a fresh answer.
	qk := mustJSON[QueryResponse](t, mustGet(t, ts.URL+"/query?k=3"), http.StatusOK)
	if len(qk.Samples) != 3 {
		t.Fatalf("k=3 samples %v", qk.Samples)
	}
	afterK := gwStats(t, ts.URL)
	if afterK.SketchMerges != cold.SketchMerges || afterK.PeerDeserializes != cold.PeerDeserializes {
		t.Fatal("k variation re-folded the union")
	}
}

// TestGatewayQueryDrawsFreshSamples pins that the gateway answers every
// query through the same code as a daemon: repeated queries over one
// quiescent fold draw fresh samples — not one cached answer — every one
// within α of an ingested point, and without touching a peer sketch.
func TestGatewayQueryDrawsFreshSamples(t *testing.T) {
	pts := stream(200, 10, 47)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 37, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 3, 2)
	gw, ts := newTestGateway(t, opts, peers, nil)
	for _, p := range pts {
		peers[gw.placement.Primary(gw.cfg.Router.Route(p))].eng.Process(p)
	}
	if q := settle(t, ts.URL, peers); q.Estimate != 200 {
		t.Fatalf("settled estimate %g, want 200", q.Estimate)
	}
	base := gwStats(t, ts.URL)

	distinct := map[[2]float64]bool{}
	for range 32 {
		q, _ := getQuery(t, ts.URL)
		if len(q.Sample) != 2 {
			t.Fatalf("sample %v, want a 2-d point", q.Sample)
		}
		near := false
		for _, p := range pts {
			if geom.WithinBall(p, q.Sample, opts.Alpha) {
				near = true
				break
			}
		}
		if !near {
			t.Fatalf("sample %v is not within α of any ingested point", q.Sample)
		}
		distinct[[2]float64{q.Sample[0], q.Sample[1]}] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("32 queries over a quiescent fold returned %d distinct sample(s), want fresh draws", len(distinct))
	}
	st := gwStats(t, ts.URL)
	if st.PeerDeserializes != base.PeerDeserializes || st.SketchMerges != base.SketchMerges {
		t.Fatalf("queries touched peer sketches: deserializes %d→%d merges %d→%d",
			base.PeerDeserializes, st.PeerDeserializes, base.SketchMerges, st.SketchMerges)
	}
}

// TestFederatedCacheInvalidation ingests one point on one peer and
// requires its push to start exactly one background round that refreshes
// exactly that peer's entry — the others answer 304 — after which the
// updated estimate is served.
func TestFederatedCacheInvalidation(t *testing.T) {
	pts := stream(100, 10, 31)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 19, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 3, 2)
	_, ts := newTestGateway(t, opts, peers, nil)

	resp, err := http.Post(ts.URL+"/ingest", pointio.BinaryContentType,
		bytes.NewReader(pointio.AppendBinaryBatch(nil, pts)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if q1 := settle(t, ts.URL, peers); q1.Estimate != 100 {
		t.Fatalf("estimate %g, want 100", q1.Estimate)
	}
	base := gwStats(t, ts.URL)

	// One brand-new group lands on peer 1 directly (bypassing the
	// gateway): its epoch moves, the others stay quiescent.
	peers[1].eng.Process(geom.Point{5000, 5000})

	if q2 := settle(t, ts.URL, peers); q2.Estimate != 101 {
		t.Fatalf("post-ingest estimate %g, want 101 (stale cache?)", q2.Estimate)
	}
	st := gwStats(t, ts.URL)
	if st.BgRefreshes-base.BgRefreshes != 1 || st.SyncRefreshes != base.SyncRefreshes {
		t.Fatalf("one push ran %d background and %d synchronous rounds, want 1 and 0",
			st.BgRefreshes-base.BgRefreshes, st.SyncRefreshes-base.SyncRefreshes)
	}
	if got := st.PeerNotModified - base.PeerNotModified; got != 2 {
		t.Fatalf("%d peers revalidated with 304, want exactly 2 (only the quiescent ones)", got)
	}
	// The re-fold costs the changed peer's envelope plus the fold
	// receiver; the two 304 peers are reused as-is.
	if got := st.PeerDeserializes - base.PeerDeserializes; got != 2 {
		t.Fatalf("re-fold deserialized %d envelopes, want 2", got)
	}
	if got := st.SketchMerges - base.SketchMerges; got != 2 {
		t.Fatalf("re-fold performed %d merges, want 2", got)
	}
	if st.FedCacheMisses-base.FedCacheMisses != 1 {
		t.Fatal("epoch move did not miss the merged cache")
	}
}

// TestFederatedCachePartialKey pins that the merged cache key covers the
// failure set: a degraded round is cached under its own key (warm on
// repeat), and recovery changes the key again.
func TestFederatedCachePartialKey(t *testing.T) {
	pts := stream(100, 10, 37)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 23, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 3, 2)
	// A short staleness bound: with a watcher down, every query past it
	// runs a synchronous scatter round.
	const maxStale = 100 * time.Millisecond
	gw, ts := newTestGateway(t, opts, peers, func(c *Config) { c.MaxStale = maxStale })
	for _, p := range pts {
		peers[gw.placement.Primary(gw.cfg.Router.Route(p))].eng.Process(p)
	}

	full := settle(t, ts.URL, peers)
	if full.Partial {
		t.Fatalf("healthy query %+v", full)
	}

	peers[2].kill()
	var deg1 QueryResponse
	waitFor(t, 10*time.Second, "a degraded fold", func() bool {
		deg1, _ = getQuery(t, ts.URL)
		return deg1.Partial
	})
	if deg1.PeersOK != 2 || deg1.Estimate >= full.Estimate {
		t.Fatalf("degraded query %+v (full estimate %g)", deg1, full.Estimate)
	}
	base := gwStats(t, ts.URL)

	// Repeat while degraded, past the bound: the query's round finds the
	// degraded key unchanged — a warm hit — and the cached full-fleet
	// answer is never served.
	time.Sleep(maxStale + 50*time.Millisecond)
	deg2, _ := getQuery(t, ts.URL)
	if !reflect.DeepEqual(withoutSamples(deg2), withoutSamples(deg1)) {
		t.Fatalf("repeated degraded answer differs: %+v vs %+v", deg2, deg1)
	}
	st := gwStats(t, ts.URL)
	if st.SyncRefreshes != base.SyncRefreshes+1 {
		t.Fatalf("repeat past max-stale ran %d synchronous rounds, want 1", st.SyncRefreshes-base.SyncRefreshes)
	}
	if st.FedCacheHits != base.FedCacheHits+1 || st.SketchMerges != base.SketchMerges {
		t.Fatalf("degraded repeat not warm: hits %d→%d merges %d→%d",
			base.FedCacheHits, st.FedCacheHits, base.SketchMerges, st.SketchMerges)
	}
}

// TestGatewaySketchConditionalGet covers the gateway's own export cache
// token: /sketch serves a strong ETag, revalidates with 304 while the
// peer-epoch vector holds still, and moves the validator when any peer
// ingests — what lets gateways stack with end-to-end caching.
func TestGatewaySketchConditionalGet(t *testing.T) {
	pts := stream(50, 10, 41)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 29, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	gw, ts := newTestGateway(t, opts, peers, nil)
	for _, p := range pts {
		peers[gw.placement.Primary(gw.cfg.Router.Route(p))].eng.Process(p)
	}
	settle(t, ts.URL, peers)

	resp := mustGet(t, ts.URL+"/sketch")
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("sketch status %d err %v", resp.StatusCode, err)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("gateway /sketch served no ETag")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sketch", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("gateway revalidation status %d, want 304", resp2.StatusCode)
	}
	if st := gwStats(t, ts.URL); st.NotModified != 1 {
		t.Fatalf("gateway not_modified = %d, want 1", st.NotModified)
	}

	// The ingest's push and background round install a new fold, which
	// moves the validator; until then the old one still revalidates.
	peers[0].eng.Process(geom.Point{9000, 9000})
	waitFor(t, 10*time.Second, "the post-ingest fold to move the ETag", func() bool {
		resp3, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp3.Body)
		resp3.Body.Close()
		switch {
		case resp3.StatusCode == http.StatusNotModified:
			return false
		case resp3.StatusCode != http.StatusOK || resp3.Header.Get("ETag") == etag:
			t.Fatalf("post-ingest gateway sketch: status %d etag %q", resp3.StatusCode, resp3.Header.Get("ETag"))
		}
		return true
	})
}

// TestStackedGatewayCache runs a two-tier tree of gateways: the top one
// watches the lower one's GET /watch exactly like a daemon's, serves
// warm queries without a request reaching the lower tier, and a bottom
// ingest reaches the top by push — the lower gateway's install bumps its
// export generation — with no query paying a synchronous refresh.
func TestStackedGatewayCache(t *testing.T) {
	pts := stream(50, 10, 43)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 31, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	low, lowTS := newTestGateway(t, opts, peers, nil)
	for _, p := range pts {
		peers[low.placement.Primary(low.cfg.Router.Route(p))].eng.Process(p)
	}
	_, topTS := newTestGateway(t, opts, nil, func(c *Config) { c.Peers = []string{lowTS.URL} })

	settle(t, lowTS.URL, peers)
	quiesce(t, topTS.URL, 50)
	q1, _ := getQuery(t, topTS.URL)
	top0, low0 := gwStats(t, topTS.URL), gwStats(t, lowTS.URL)
	q2, _ := getQuery(t, topTS.URL)
	if !reflect.DeepEqual(withoutSamples(q2), withoutSamples(q1)) {
		t.Fatal("stacked warm answer differs")
	}
	top1, low1 := gwStats(t, topTS.URL), gwStats(t, lowTS.URL)
	if top1.StaleServes != top0.StaleServes+1 || top1.PeerNotModified != top0.PeerNotModified || low1.Queries != low0.Queries {
		t.Fatalf("warm top query reached the lower gateway: stale serves %d→%d, top 304s %d→%d, lower queries %d→%d",
			top0.StaleServes, top1.StaleServes, top0.PeerNotModified, top1.PeerNotModified, low0.Queries, low1.Queries)
	}

	// An ingest at the bottom invalidates the whole stack by push.
	peers[1].eng.Process(geom.Point{7000, 7000})
	waitFor(t, 5*time.Second, "the bottom ingest to reach the top gateway", func() bool {
		q, hdr := getQuery(t, topTS.URL)
		return q.Estimate == 51 && hdr.Get(StalenessHeader) == "0"
	})
	top2 := gwStats(t, topTS.URL)
	if top2.WatchPushes <= top1.WatchPushes {
		t.Fatalf("top gateway's watch_pushes flat at %d: the lower gateway's /watch never pushed", top2.WatchPushes)
	}
	if top2.SyncRefreshes != top1.SyncRefreshes {
		t.Fatalf("propagation cost %d synchronous refreshes at the top, want none", top2.SyncRefreshes-top1.SyncRefreshes)
	}
}
