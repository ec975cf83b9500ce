package cluster

// Federated-cache e2e suite. The acceptance property of the cache: a
// fully-quiescent cluster answers repeated queries from the installed
// fold with zero peer-sketch deserializations and zero merges (proven by
// the /stats counters), and an ingest on one peer runs one round that
// decodes every peer once and folds them into the first.

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/pkg/sketch"
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
	// Every fold decoded each of the three peers once and merged the
	// other two into the first.
	if cold.FedCacheMisses < 1 || cold.SketchMerges != 2*cold.FedCacheMisses ||
		cold.PeerDeserializes != 3*cold.FedCacheMisses {
		t.Fatalf("fold counters: deserializes=%d merges=%d folds=%d, want 3×folds / 2×folds / ≥ 1",
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
	if warm.FedCacheMisses != cold.FedCacheMisses || warm.BgRefreshes != cold.BgRefreshes ||
		warm.SyncRefreshes != cold.SyncRefreshes {
		t.Fatalf("warm queries ran scatter rounds: folds %d→%d bg %d→%d sync %d→%d",
			cold.FedCacheMisses, warm.FedCacheMisses, cold.BgRefreshes, warm.BgRefreshes,
			cold.SyncRefreshes, warm.SyncRefreshes)
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
// requires its push to start exactly one background round, which decodes
// every peer's envelope once and merges two of them into the first,
// after which the updated estimate is served.
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
	// The re-fold decodes each peer's envelope once; the first is the
	// fold receiver, so no envelope is decoded twice.
	if got := st.PeerDeserializes - base.PeerDeserializes; got != 3 {
		t.Fatalf("re-fold deserialized %d envelopes, want 3", got)
	}
	if got := st.SketchMerges - base.SketchMerges; got != 2 {
		t.Fatalf("re-fold performed %d merges, want 2", got)
	}
	if st.FedCacheMisses-base.FedCacheMisses != 1 {
		t.Fatal("epoch move did not install a new fold")
	}
}

// TestFederatedCachePartialKey pins that a degraded fold is never
// answered from the full fleet's state: the repeat past the staleness
// bound re-folds the live peers and still answers partial.
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

	// Repeat while degraded, past the bound: the query's round re-folds
	// the two live peers, and the full-fleet answer is never served.
	time.Sleep(maxStale + 50*time.Millisecond)
	deg2, _ := getQuery(t, ts.URL)
	if !reflect.DeepEqual(withoutSamples(deg2), withoutSamples(deg1)) {
		t.Fatalf("repeated degraded answer differs: %+v vs %+v", deg2, deg1)
	}
	st := gwStats(t, ts.URL)
	if st.SyncRefreshes != base.SyncRefreshes+1 {
		t.Fatalf("repeat past max-stale ran %d synchronous rounds, want 1", st.SyncRefreshes-base.SyncRefreshes)
	}
	if st.PeerDeserializes != base.PeerDeserializes+2 || st.SketchMerges != base.SketchMerges+1 {
		t.Fatalf("degraded repeat: deserializes %d→%d merges %d→%d, want +2 and +1 (the live peers)",
			base.PeerDeserializes, st.PeerDeserializes, base.SketchMerges, st.SketchMerges)
	}
}

// TestGatewaySketchConditionalGet pins the freshness contract of the
// gateway's own export: /sketch answers a request with If-None-Match in
// full, stamped with the installed fold's export generation and with no
// ETag, and a peer ingest reaches it as an install that moves the
// generation GET /watch serves — what lets gateways stack.
func TestGatewaySketchConditionalGet(t *testing.T) {
	pts := stream(50, 10, 41)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 29, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	gw, ts := newTestGateway(t, opts, peers, nil)
	for _, p := range pts {
		peers[gw.placement.Primary(gw.cfg.Router.Route(p))].eng.Process(p)
	}
	settle(t, ts.URL, peers)

	// export fetches /sketch with If-None-Match: * and returns the fold's
	// estimate and the generation stamped on it.
	export := func() (float64, int64) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sketch", nil)
		req.Header.Set("If-None-Match", "*")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(blob) == 0 {
			t.Fatalf("gateway sketch with If-None-Match: status %d, %d bytes, err %v; want 200 with a body",
				resp.StatusCode, len(blob), err)
		}
		if etag := resp.Header.Get("ETag"); etag != "" {
			t.Fatalf("gateway /sketch served ETag %q", etag)
		}
		gen, err := strconv.ParseInt(resp.Header.Get(server.EpochHeader), 10, 64)
		if err != nil || gen < 1 {
			t.Fatalf("gateway /sketch: bad %s %q", server.EpochHeader, resp.Header.Get(server.EpochHeader))
		}
		sk, err := sketch.Deserialize(blob)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sk.Query()
		if err != nil {
			t.Fatal(err)
		}
		return res.Estimate, gen
	}
	est, gen := export()
	if est != 50 {
		t.Fatalf("settled export estimate %g, want 50", est)
	}
	watch := mustJSON[server.WatchResponse](t, mustGet(t, ts.URL+"/watch?epoch=0&timeout=1s"), http.StatusOK)
	if watch.Epoch != gen {
		t.Fatalf("/watch generation %d, /sketch stamped %d", watch.Epoch, gen)
	}

	// The ingest's push and background round install a new fold, which
	// moves the generation: /watch reports it, and the export follows.
	peers[0].eng.Process(geom.Point{9000, 9000})
	waitFor(t, 10*time.Second, "the post-ingest fold to reach the export", func() bool {
		watch = mustJSON[server.WatchResponse](t,
			mustGet(t, ts.URL+"/watch?epoch="+strconv.FormatInt(gen, 10)+"&timeout=1s"), http.StatusOK)
		if !watch.Changed || watch.Epoch <= gen {
			return false
		}
		est2, gen2 := export()
		if gen2 < watch.Epoch {
			t.Fatalf("export stamped generation %d after /watch reported %d", gen2, watch.Epoch)
		}
		gen = gen2
		return est2 == 51
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
	if top1.StaleServes != top0.StaleServes+1 || low1.Queries != low0.Queries {
		t.Fatalf("warm top query reached the lower gateway: stale serves %d→%d, lower queries %d→%d",
			top0.StaleServes, top1.StaleServes, low0.Queries, low1.Queries)
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
