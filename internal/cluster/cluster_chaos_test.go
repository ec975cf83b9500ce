package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaosproxy"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pointio"
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

// TestChaosFlappingPeerGatewayStaysServing puts a real TCP chaosproxy
// (connection resets, not polite 503s) between the gateway and peer 0
// and checks the two transitions a flap is made of, one at a time. From
// a quiesced clean cache, a hard-down peer must not cost queries
// anything: the stale complete fold is served within the -max-stale
// bound while watch failures open the breaker. On recovery the
// watcher's reconnect must mark the cache dirty, so ingest that landed
// behind the gateway's back is re-folded without any request forcing
// it. The flap itself, under load, is TestChaosFlapUnderLoad's.
func TestChaosFlappingPeerGatewayStaysServing(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 7, StreamBound: 1 << 12, Kappa: 512, K: 4}
	peers := newTestCluster(t, opts, 3, 2)

	proxy, err := chaosproxy.New(peers[0].ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	_, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Peers[0] = proxy.URL()
		// Wide enough that every serve while the peer is down stays
		// inside the bound: no query may pay a degraded sync refresh.
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

	// Phase 2 — recovery marks the cache dirty. Land a far-away group
	// directly on peer 0 while it is still unreachable (the gateway
	// cannot see the ingest: no watch, no push), then bring the proxy
	// back. The reconnecting watcher must mark the fold dirty and the
	// background refresher re-fold — the hidden group appears without
	// any ingest or query forcing it.
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
}

// TestChaosFlapUnderLoad is the serving tier's chaos gate. Peer 0 flaps
// behind a resetting TCP proxy through five down phases while two
// writers post 200-point batches through the gateway and a reader
// queries ?k=2 back to back. New batches are released evenly across the
// flap and each is posted once, so groups first arrive during down
// phases too; between releases the writers re-post the warm-up batch,
// whose points collapse as duplicates. MaxStale is 100 ms, so a round
// that comes back partial is installed rather than refused in favour of
// an older complete fold.
//
// Every query must answer 200, at least 50 of them while the peer is
// down; peer 0's breaker must be seen open; within 15 s of the flap
// stopping every peer must be up and an answer complete at staleness
// 0; and the settled estimate must be the exact group count. At
// replicas 1 a batch whose post failed is re-posted after recovery. At
// replicas 2 every cell keeps a live owner through the flap, so no
// ingest may fail and no answer may be partial.
func TestChaosFlapUnderLoad(t *testing.T) {
	for _, tc := range []struct{ peers, replicas int }{{3, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("peers=%d,replicas=%d", tc.peers, tc.replicas), func(t *testing.T) {
			chaosFlapUnderLoad(t, tc.peers, tc.replicas)
		})
	}
}

func chaosFlapUnderLoad(t *testing.T, n, replicas int) {
	const (
		groups  = 1024
		upFor   = 200 * time.Millisecond
		downFor = 200 * time.Millisecond
		flapFor = 5*(upFor+downFor) + upFor // five down phases, ending up
	)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 7, StreamBound: 1 << 16, Kappa: 512, K: 4}
	peers := newTestCluster(t, opts, n, 2)
	proxy, err := chaosproxy.New(peers[0].ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	gw, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Peers[0] = proxy.URL()
		c.Replicas = replicas
		c.MaxStale = 100 * time.Millisecond
		c.RequestTimeout = time.Second
		c.DownAfter = 2
		c.DownCooldown = 100 * time.Millisecond
	})
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	t.Cleanup(tr.CloseIdleConnections)
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second} // a hung request fails the test, not the run

	pts := stream(groups, 4, 11)
	var batches [][]byte
	for i := 0; i < len(pts); i += 200 {
		batches = append(batches, pointio.AppendBinaryBatch(nil, pts[i:min(i+200, len(pts))]))
	}
	post := func(body []byte) error {
		resp, err := client.Post(ts.URL+"/ingest", pointio.BinaryContentType, bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e server.ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	// The warm-up batch goes in before the flap: the gateway needs a
	// fold to serve from, and an empty one answers no query.
	if err := post(batches[0]); err != nil {
		t.Fatal(err)
	}
	settle(t, ts.URL, peers)

	var (
		wg      sync.WaitGroup
		stopped atomic.Bool
		mu      sync.Mutex
		failed  = map[int]error{} // batch → its last failed post
		// Written by the reader alone, read after wg.Wait.
		queries, downQueries, partials int
		queryErr                       error
		breakerOpen                    bool
	)
	start := time.Now()
	release := flapFor / time.Duration(len(batches))
	stopFlap := proxy.Flap(upFor, downFor)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := 1 + w // this writer's first batch not yet posted
			for next < len(batches) || !stopped.Load() {
				i := 0 // between releases, re-post the warm-up batch
				if next < min(len(batches), int(time.Since(start)/release)+1) {
					i, next = next, next+2
				}
				if err := post(batches[i]); err != nil {
					mu.Lock()
					failed[i] = err
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped.Load() && queryErr == nil {
			if proxy.Down() {
				downQueries++
			}
			breakerOpen = breakerOpen || !gw.peers[0].up()
			queries++
			resp, err := client.Get(ts.URL + "/query?k=2")
			if err != nil {
				queryErr = err
				break
			}
			var q QueryResponse
			err = json.NewDecoder(resp.Body).Decode(&q)
			resp.Body.Close()
			switch {
			case resp.StatusCode != http.StatusOK:
				queryErr = fmt.Errorf("HTTP %d", resp.StatusCode)
			case err != nil:
				queryErr = err
			case q.Partial:
				partials++
			}
		}
	}()
	time.Sleep(flapFor)
	stopFlap()
	stopAt := time.Now()
	stopped.Store(true)
	wg.Wait()

	t.Logf("%d queries, %d while peer 0 was down, %d partial; %d batches failed a post",
		queries, downQueries, partials, len(failed))
	if queryErr != nil {
		t.Fatalf("query %d during the flap: %v, want every query answered 200", queries, queryErr)
	}
	if downQueries < 50 {
		t.Fatalf("only %d of %d queries were issued while peer 0 was down, want ≥ 50", downQueries, queries)
	}
	if !breakerOpen {
		t.Fatal("peer 0's breaker was never seen open during the flap")
	}
	if replicas > 1 {
		if partials > 0 {
			t.Fatalf("%d partial answers at replicas %d with one peer flapping: quorum lost", partials, replicas)
		}
		for i, err := range failed {
			t.Fatalf("batch %d failed at replicas %d with one peer flapping: %v", i, replicas, err)
		}
	}

	waitFor(t, 15*time.Second-time.Since(stopAt), "every peer up and a complete answer at staleness 0", func() bool {
		s := gwStats(t, ts.URL)
		if s.PeersUp != n || !s.Peers[0].WatchOK {
			return false
		}
		q, hdr := getQuery(t, ts.URL)
		return !q.Partial && hdr.Get(StalenessHeader) == "0"
	})
	// Re-posting is safe: duplicates collapse.
	for i := range failed {
		if err := post(batches[i]); err != nil {
			t.Fatalf("re-posting batch %d after recovery: %v", i, err)
		}
	}
	if q := settle(t, ts.URL, peers); q.Estimate != groups {
		t.Fatalf("settled estimate %.1f after the flap, want the exact %d groups", q.Estimate, groups)
	}
}

// TestChaosProxyLatencyInjection drives a query through a latency-
// injecting proxy and checks the delay lands on the wire path.
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
