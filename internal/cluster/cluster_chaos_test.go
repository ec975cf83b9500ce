package cluster

import (
	"net/http"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/loadgen/chaosproxy"
	"repro/internal/server"
)

// quiesce waits until the gateway's fold is complete at the expected
// estimate with zero reported staleness, and stays that way across a
// settle window — so no in-flight watch push or refresh round can
// dirty the cache after the caller proceeds.
func quiesce(t *testing.T, url string, estimate float64) {
	t.Helper()
	holdStill(t, url, "gateway to quiesce on the complete fold", func(q QueryResponse, _ http.Header) bool {
		return q.Estimate == estimate
	})
}

// holdStill waits until every /query answer across a settle window is
// complete, served at staleness 0, and satisfies ok, and returns the
// last one.
func holdStill(t *testing.T, url, what string, ok func(QueryResponse, http.Header) bool) QueryResponse {
	t.Helper()
	var q QueryResponse
	settled := 0
	waitFor(t, 15*time.Second, what, func() bool {
		var hdr http.Header
		q, hdr = getQuery(t, url)
		if q.Partial || hdr.Get(StalenessHeader) != "0" || !ok(q, hdr) {
			settled = 0
			return false
		}
		settled++
		return settled >= 10 // ≥200ms of consecutive clean samples
	})
	return q
}

// TestChaosFlappingPeerGatewayStaysServing runs the failure scenario the
// load harness automates, at e2e-test scale with a real TCP chaosproxy
// (connection resets, not polite 503s) between the gateway and peer 0.
// Three phases: from a quiesced clean cache, a hard-down peer must not
// cost queries anything — the stale complete fold is served within the
// -max-stale bound while watch failures open the breaker; under rapid
// flapping every query must still be answered (degraded answers allowed
// — a refresh round that straddles a down phase legitimately installs a
// partial fold); and on recovery the watcher's reconnect must mark the
// cache dirty so ingest that landed behind the gateway's back is
// re-folded without any request forcing it.
func TestChaosFlappingPeerGatewayStaysServing(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 7, StreamBound: 1 << 12, Kappa: 512, K: 4}
	peers := newTestCluster(t, opts, 3, 2)

	proxy, err := chaosproxy.New(peers[0].ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	gw, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Peers[0] = proxy.URL()
		// Wide enough that every flap-phase serve stays inside the
		// bound — no query should ever pay a degraded sync refresh.
		c.MaxStale = time.Minute
		c.RequestTimeout = time.Second
		c.DownAfter = 2
		c.DownCooldown = 100 * time.Millisecond // breaker re-probes quickly once a down phase ends
	})

	const groups = 60
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(stream(groups, 5, 7)))
	if err != nil {
		t.Fatal(err)
	}
	ing := mustJSON[server.IngestResponse](t, resp, http.StatusOK)
	if ing.Ingested != groups*5 {
		t.Fatalf("seed ingest accepted %d/%d points", ing.Ingested, groups*5)
	}
	quiesce(t, ts.URL, groups)

	// Phase 1 — hard down from a clean cache: nothing marks the cache
	// dirty, so the complete fold is served stale, within the bound,
	// while the watcher's failed reconnects open the breaker.
	proxy.SetDown(true)
	waitFor(t, 10*time.Second, "watch failures to open the breaker", func() bool {
		return !gwStats(t, ts.URL).Peers[0].Up
	})
	before := gwStats(t, ts.URL)
	for i := 0; i < 5; i++ {
		q, hdr := getQuery(t, ts.URL)
		if q.Partial || q.Estimate != groups {
			t.Fatalf("query %d with breaker open: partial=%v estimate=%.1f, want the complete stale fold",
				i, q.Partial, q.Estimate)
		}
		ms, err := strconv.ParseInt(hdr.Get(StalenessHeader), 10, 64)
		if err != nil {
			t.Fatalf("unparseable staleness header %q", hdr.Get(StalenessHeader))
		}
		if ms <= 0 || ms >= time.Minute.Milliseconds() {
			t.Fatalf("staleness %dms served with a peer down, want 0 < ms < the 1m bound", ms)
		}
	}
	after := gwStats(t, ts.URL)
	if after.StaleServes < before.StaleServes+5 {
		t.Fatalf("stale_serves grew %d → %d across 5 stale queries", before.StaleServes, after.StaleServes)
	}
	if after.SyncRefreshes != before.SyncRefreshes {
		t.Fatal("a query inside the staleness bound paid a synchronous refresh")
	}

	// Phase 2 — rapid flapping: availability is the invariant. Every
	// query must answer 200; partial answers are legitimate (a refresh
	// round straddling a down phase folds the live subset).
	proxy.SetDown(false)
	stopFlap := proxy.Flap(60*time.Millisecond, 60*time.Millisecond)
	deadline := time.Now().Add(1 * time.Second)
	answered := 0
	for time.Now().Before(deadline) {
		r, err := http.Get(ts.URL + "/query?k=2")
		if err != nil {
			t.Fatalf("query %d errored during flap: %v", answered, err)
		}
		if r.StatusCode != http.StatusOK {
			r.Body.Close()
			t.Fatalf("query %d during flap: HTTP %d, want 100%% availability", answered, r.StatusCode)
		}
		r.Body.Close()
		answered++
		time.Sleep(10 * time.Millisecond)
	}
	if answered < 50 {
		t.Fatalf("only %d queries issued during the flap window", answered)
	}
	stopFlap()

	// Phase 3 — recovery marks the cache dirty. Land a far-away group
	// directly on peer 0 while it is unreachable (the gateway cannot
	// see the ingest: no watch, no push), then bring the proxy back.
	// The reconnecting watcher must mark the fold dirty and the
	// background refresher re-fold — the hidden group appears without
	// any ingest or query forcing it.
	proxy.SetDown(true)
	waitFor(t, 10*time.Second, "breaker open before the hidden ingest", func() bool {
		return !gwStats(t, ts.URL).Peers[0].Up
	})
	peers[0].eng.Process(geom.Point{0, 500})
	peers[0].eng.Drain()
	proxy.SetDown(false)
	waitFor(t, 15*time.Second, "recovered watcher to re-fold the hidden ingest", func() bool {
		q, hdr := getQuery(t, ts.URL)
		return !q.Partial && q.Estimate == groups+1 && hdr.Get(StalenessHeader) == "0"
	})
	waitFor(t, 10*time.Second, "all peers back up", func() bool {
		s := gwStats(t, ts.URL)
		return s.PeersUp == 3 && s.Peers[0].WatchOK
	})
	_ = gw
}

// TestChaosProxyLatencyInjection drives a query through a latency-
// injecting proxy and checks the delay lands on the wire path — the
// scenario sketchload's -chaos latency runs, at unit scale.
func TestChaosProxyLatencyInjection(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 9, StreamBound: 1 << 10}
	peers := newTestCluster(t, opts, 1, 1)
	peers[0].eng.Process(geom.Point{1, 1})

	proxy, err := chaosproxy.New(peers[0].ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	client := &http.Client{Timeout: 5 * time.Second}
	get := func() time.Duration {
		t.Helper()
		start := time.Now()
		resp, err := client.Get(proxy.URL() + "/query?k=1")
		if err != nil {
			t.Fatal(err)
		}
		mustJSON[server.QueryResponse](t, resp, http.StatusOK)
		return time.Since(start)
	}

	get() // warm the connection
	proxy.SetLatency(80 * time.Millisecond)
	if d := get(); d < 80*time.Millisecond {
		t.Fatalf("injected 80ms of latency, query took %v", d)
	}
	proxy.SetLatency(0)
	if d := get(); d > 60*time.Millisecond {
		t.Fatalf("latency cleared but query still took %v", d)
	}
}
