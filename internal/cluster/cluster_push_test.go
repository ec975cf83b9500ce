package cluster

// Push-propagation suite: serve-stale-while-revalidate end to end.
// The acceptance scenario (TestPushWarmPathServesWithoutFanout) pins the
// tentpole property — a quiescent push cluster answers queries with ZERO
// peer round trips on the request path — and the failure-mode tests pin
// the hard edges: a peer dying mid-watch (breaker opens, stale fold
// still served, staleness bound forces an eventual sync refresh), a
// partial round never replacing a complete fold within the bound, and
// an epoch push landing during an in-flight background refresh (no lost
// invalidation: the final fold reflects the latest epoch). The pacing
// tests pin when background rounds run at all: on the leading edge, per
// stale serve, and as the MaxStale/2 backstop — never back to back. The
// restart test pins that a peer restarting behind the same URL, its
// epoch counting from 0 again, is re-folded at once.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/server"
)

// waitFor polls cond every 20ms until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", d, what)
}

// getQuery fetches /query and returns the decoded response plus the
// push headers.
func getQuery(t *testing.T, url string) (QueryResponse, http.Header) {
	t.Helper()
	resp := mustGet(t, url+"/query")
	hdr := resp.Header
	return mustJSON[QueryResponse](t, resp, http.StatusOK), hdr
}

// forwardProxy relays every request to upstream, preserving method,
// query string, headers, and status — unlike a bare http.Get relay it
// keeps the epoch headers intact, so the gateway's push protocol works
// through it. hook (optional) runs after the upstream
// response is fully read and before it is written back: tests use it to
// inject latency into specific paths or to fail them.
func forwardProxy(t *testing.T, upstream string, hook func(path string) (handled bool, w func(http.ResponseWriter))) *httptest.Server {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil {
			if handled, writer := hook(r.URL.Path); handled {
				writer(w)
				return
			}
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, upstream+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if hook != nil {
			if handled, writer := hook("post:" + r.URL.Path); handled && writer != nil {
				writer(w)
				return
			}
		}
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// TestPushWarmPathServesWithoutFanout is the acceptance scenario: a
// quiescent 4-peer cluster answers GET /query with zero
// peer round trips on the request path (stale_serves grows while
// deserializes and merges stay flat), and an ingest
// is reflected in the fold within one watch push plus one background
// refresh — never a query-time fan-out.
func TestPushWarmPathServesWithoutFanout(t *testing.T) {
	pts := stream(100, 5, 61)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 19, StreamBound: len(pts) + 16, Kappa: 128}
	peers := newTestCluster(t, opts, 4, 2)
	_, ts := newTestGateway(t, opts, peers, nil)

	// One batch straight into each peer's engine (gateway routing can be
	// arbitrarily skewed for a hand-built stream; the union does not
	// care which peer holds which group, and every peer must see an
	// epoch bump for the epoch-vector assertions below).
	chunk := len(pts) / len(peers)
	for i, p := range peers {
		p.eng.ProcessBatch(pts[i*chunk : (i+1)*chunk])
	}

	// Settle: the watchers push the ingest epochs, the background
	// refresher folds, and the cache goes continuously-validated —
	// observable as a served staleness of exactly 0 over a fold whose
	// epoch vector covers every peer's (single-batch) ingest.
	allFolded := func(hdr http.Header) bool {
		vec := strings.Split(hdr.Get(EpochVectorHeader), ",")
		if len(vec) != 4 {
			return false
		}
		for _, v := range vec {
			if ep, err := strconv.ParseInt(v, 10, 64); err != nil || ep < 1 {
				return false
			}
		}
		return true
	}
	// Each peer ingested exactly one batch, so exactly 4 pushes ever
	// happen, and a fold over all four epochs holds the final estimate.
	var baseline float64
	waitFor(t, 10*time.Second, "push cluster to fold every peer's ingest", func() bool {
		s := gwStats(t, ts.URL)
		q, hdr := getQuery(t, ts.URL)
		baseline = q.Estimate
		return s.WatchPushes >= 4 && !q.Partial && allFolded(hdr)
	})
	if baseline < 90 || baseline > 110 {
		t.Fatalf("settled estimate %.1f implausible for 100 groups", baseline)
	}
	// A staleness of "0" is truncated to whole milliseconds, so one clean
	// sample can still cover a fold a late push dirtied under 1ms ago —
	// and the round that serve asks for would then land in the warm phase.
	// Quiescing requires a sustained clean window instead.
	quiesce(t, ts.URL, baseline)

	s0 := gwStats(t, ts.URL)
	if s0.WatchPushes < 1 || s0.BgRefreshes < 1 {
		t.Fatalf("settled stats show no push activity: pushes %d, bg refreshes %d",
			s0.WatchPushes, s0.BgRefreshes)
	}

	// Quiescent warm path: every query is a stale serve off the cached
	// fold; no fetch, no deserialization, no merge anywhere.
	const warmQueries = 20
	for i := 0; i < warmQueries; i++ {
		q, hdr := getQuery(t, ts.URL)
		if q.Estimate != baseline || q.Partial {
			t.Fatalf("warm query %d drifted: estimate %.1f (want %.1f), partial %v",
				i, q.Estimate, baseline, q.Partial)
		}
		if hdr.Get(StalenessHeader) != "0" {
			t.Fatalf("warm query %d staleness %q, want 0 (quiescent + healthy watchers)",
				i, hdr.Get(StalenessHeader))
		}
		if !allFolded(hdr) {
			t.Fatalf("warm query %d epoch vector %q, want 4 entries all ≥ 1",
				i, hdr.Get(EpochVectorHeader))
		}
	}
	s1 := gwStats(t, ts.URL)
	if got := s1.StaleServes - s0.StaleServes; got != warmQueries {
		t.Fatalf("stale_serves grew by %d, want %d (every warm query)", got, warmQueries)
	}
	if s1.PeerDeserializes != s0.PeerDeserializes || s1.SketchMerges != s0.SketchMerges {
		t.Fatalf("warm queries deserialized (%d → %d) or merged (%d → %d)",
			s0.PeerDeserializes, s1.PeerDeserializes, s0.SketchMerges, s1.SketchMerges)
	}
	if s1.SyncRefreshes != s0.SyncRefreshes {
		t.Fatalf("warm queries paid %d synchronous refreshes", s1.SyncRefreshes-s0.SyncRefreshes)
	}

	// One ingest on one peer: the epoch push and the background refresh
	// propagate it into the fold while every query stays a stale serve.
	peers[2].eng.Process(geom.Point{5000, 5000}) // far from every group: +1 distinct
	waitFor(t, 10*time.Second, "pushed ingest to reach the fold", func() bool {
		q, _ := getQuery(t, ts.URL)
		return q.Estimate > baseline+0.5
	})
	s2 := gwStats(t, ts.URL)
	if s2.WatchPushes <= s1.WatchPushes {
		t.Fatalf("watch_pushes flat at %d across an ingest", s2.WatchPushes)
	}
	if s2.BgRefreshes <= s1.BgRefreshes {
		t.Fatalf("bg_refreshes flat at %d across an ingest", s2.BgRefreshes)
	}
	if s2.SyncRefreshes != s1.SyncRefreshes {
		t.Fatalf("propagation cost %d query-time fan-outs, want none",
			s2.SyncRefreshes-s1.SyncRefreshes)
	}
}

// TestPushPeerDeathServesStale kills a peer mid-watch: the watcher's
// failures open the circuit breaker, yet queries keep serving the last
// complete fold (a stale merged sketch is a valid sketch) until the
// staleness bound forces a synchronous refresh, which degrades to the
// live subset. When the peer returns, the watcher recovers the fold to
// complete without any query paying a fan-out.
func TestPushPeerDeathServesStale(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 23, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	peers[0].eng.Process(geom.Point{1, 1})
	peers[1].eng.Process(geom.Point{60, 60})

	var down atomic.Bool
	proxy := forwardProxy(t, peers[1].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
		if down.Load() && !strings.HasPrefix(path, "post:") {
			return true, func(w http.ResponseWriter) {
				http.Error(w, `{"error":"injected outage"}`, http.StatusServiceUnavailable)
			}
		}
		return false, nil
	})

	gw, ts := newTestGateway(t, opts, peers[:1], func(c *Config) {
		c.Peers = []string{peers[0].ts.URL, proxy.URL}
		// Wide enough that breaker-opening and the stale-complete check
		// below land comfortably inside the bound, short enough that the
		// bound is exceeded within the test.
		c.MaxStale = 2 * time.Second
		c.DownAfter = 2
		c.DownCooldown = 24 * time.Hour // stays open: isolates the serve-stale window
	})

	waitFor(t, 10*time.Second, "complete fold over both peers", func() bool {
		q, hdr := getQuery(t, ts.URL)
		return !q.Partial && q.Estimate == 2 && hdr.Get(StalenessHeader) == "0"
	})

	down.Store(true)
	proxy.CloseClientConnections() // the parked long-poll meets the outage at once
	// The watcher's reconnects fail and open the breaker without any
	// query traffic driving it.
	waitFor(t, 10*time.Second, "watch failures to open the breaker", func() bool {
		s := gwStats(t, ts.URL)
		return !s.Peers[1].Up && !s.Peers[1].WatchOK
	})

	// Inside the staleness bound: the full two-peer fold is still served,
	// complete, with zero request-path round trips.
	q, hdr := getQuery(t, ts.URL)
	if q.Partial || q.Estimate != 2 {
		t.Fatalf("within max-stale: got partial=%v estimate=%.1f, want the complete stale fold",
			q.Partial, q.Estimate)
	}
	if hdr.Get(StalenessHeader) == "0" {
		t.Fatal("staleness reported 0 with a watcher down")
	}

	// Past the bound: the next query pays a synchronous refresh and
	// degrades to the live subset.
	s0 := gwStats(t, ts.URL)
	waitFor(t, 15*time.Second, "staleness bound to force a degraded sync refresh", func() bool {
		q, _ := getQuery(t, ts.URL)
		return q.Partial && q.Estimate == 1
	})
	if s1 := gwStats(t, ts.URL); s1.SyncRefreshes <= s0.SyncRefreshes {
		t.Fatal("degradation happened without a synchronous refresh")
	}

	// Recovery: reopen the peer; the watcher (not a query) probes it,
	// marks the cache dirty, and the background refresher restores the
	// complete fold. The cooldown is hours long, so only watchOnce's
	// successful reconnect can close the breaker — via the half-open
	// probe admitted when its deadline was re-armed by admit.
	down.Store(false)
	gw.peers[1].downUntil.Store(time.Now().UnixNano()) // elapse the test's infinite cooldown
	waitFor(t, 10*time.Second, "recovered peer to rejoin the fold", func() bool {
		q, _ := getQuery(t, ts.URL)
		return !q.Partial && q.Estimate == 2
	})
}

// TestPushInvalidationDuringRefresh pins the no-lost-invalidation
// protocol: an epoch push that lands while a background refresh round is
// already in flight (its snapshot fetched before the second ingest) must
// leave the cache dirty, so a follow-up round folds the latest epoch —
// the final estimate reflects both ingests without any query fan-out.
func TestPushInvalidationDuringRefresh(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 29, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 1, 1)

	// /sketch responses are delayed AFTER the upstream read: the round's
	// snapshot is pinned to the pre-delay epoch while the gateway keeps
	// waiting, which is exactly the in-flight window the second ingest
	// must not be lost in.
	var delay atomic.Int64 // milliseconds
	proxy := forwardProxy(t, peers[0].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
		if path == "post:/sketch" {
			if d := delay.Load(); d > 0 {
				time.Sleep(time.Duration(d) * time.Millisecond)
			}
		}
		return false, nil
	})

	_, ts := newTestGateway(t, opts, []*testPeer{peers[0]}, func(c *Config) {
		c.Peers = []string{proxy.URL}
	})

	delay.Store(500)
	peers[0].eng.Process(geom.Point{1, 1})   // epoch 1: push → refresh round departs
	time.Sleep(150 * time.Millisecond)       // round is now parked in the proxy delay
	peers[0].eng.Process(geom.Point{80, 80}) // epoch 2: lands mid-flight

	waitFor(t, 10*time.Second, "fold to reflect the mid-flight ingest", func() bool {
		q, _ := getQuery(t, ts.URL)
		return q.Estimate == 2
	})
	if s := gwStats(t, ts.URL); s.BgRefreshes < 2 {
		t.Fatalf("bg_refreshes %d: the mid-flight invalidation needed a second round", s.BgRefreshes)
	}
}

// TestPushKeepsCompleteFoldWithinMaxStale pins the serve-stale-complete
// policy: an ingest lands on a peer and is pushed, but the peer's export
// dies before the background round can fetch it. That round comes back
// partial, and inside -max-stale it must not replace the complete fold —
// queries keep answering partial:false with the complete estimate,
// flagged stale, without any synchronous refresh. Once the export
// recovers, the next round folds the ingest.
func TestPushKeepsCompleteFoldWithinMaxStale(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 41, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	peers[0].eng.Process(geom.Point{1, 1})
	peers[1].eng.Process(geom.Point{60, 60})

	var exportDown atomic.Bool
	var outageHits atomic.Int64
	proxy := forwardProxy(t, peers[1].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
		if path == "/sketch" && exportDown.Load() {
			outageHits.Add(1)
			return true, func(w http.ResponseWriter) {
				http.Error(w, `{"error":"injected outage"}`, http.StatusServiceUnavailable)
			}
		}
		return false, nil
	})
	_, ts := newTestGateway(t, opts, peers[:1], func(c *Config) {
		c.Peers = []string{peers[0].ts.URL, proxy.URL}
		c.MaxStale = time.Minute // the whole test runs inside the bound
	})
	quiesce(t, ts.URL, 2)
	s0 := gwStats(t, ts.URL)

	// The watcher stays healthy and pushes the new epoch; only the
	// export the background round needs is down.
	exportDown.Store(true)
	peers[1].eng.Process(geom.Point{120, 120})
	waitFor(t, 10*time.Second, "a background round to hit the export outage", func() bool {
		return outageHits.Load() > 0 && gwStats(t, ts.URL).Peers[1].Failures > s0.Peers[1].Failures
	})
	// The round's outcome is installed (or not) right after its failed
	// fetch; keep asking long enough for a wrongly installed partial fold
	// to show.
	for i := 0; i < 25; i++ {
		q, hdr := getQuery(t, ts.URL)
		if q.Partial || q.Estimate != 2 || q.PeersOK != 2 {
			t.Fatalf("query %d inside max-stale: partial=%v estimate=%.1f peers_ok=%d, want the complete fold (estimate 2, 2 peers)",
				i, q.Partial, q.Estimate, q.PeersOK)
		}
		if hdr.Get(StalenessHeader) == "0" {
			t.Fatalf("query %d reported staleness 0 over a pushed, unfolded ingest", i)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s1 := gwStats(t, ts.URL)
	if s1.SyncRefreshes != s0.SyncRefreshes {
		t.Fatalf("%d queries inside the bound paid a synchronous refresh", s1.SyncRefreshes-s0.SyncRefreshes)
	}
	if s1.FedCacheMisses != s0.FedCacheMisses {
		t.Fatalf("fed_cache_misses %d → %d: a fold was installed during the outage", s0.FedCacheMisses, s1.FedCacheMisses)
	}

	exportDown.Store(false)
	waitFor(t, 10*time.Second, "the recovered export to fold the ingest", func() bool {
		q, hdr := getQuery(t, ts.URL)
		return !q.Partial && q.Estimate == 3 && hdr.Get(StalenessHeader) == "0"
	})
}

// pacedGateway starts one peer holding a single point behind a proxy
// that holds every /sketch answer for *delay milliseconds after reading
// it upstream (so a round's snapshot is pinned while the round stays in
// flight), plus a push gateway over the proxy with the given MaxStale,
// quiesced on the point.
func pacedGateway(t *testing.T, seed uint64, maxStale time.Duration) (*testPeer, *atomic.Int64, string) {
	t.Helper()
	opts := core.Options{Alpha: 1, Dim: 2, Seed: seed, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 1, 1)
	peers[0].eng.Process(geom.Point{1, 1})
	delay := new(atomic.Int64)
	proxy := forwardProxy(t, peers[0].ts.URL, func(path string) (bool, func(http.ResponseWriter)) {
		if path == "post:/sketch" {
			if d := delay.Load(); d > 0 {
				time.Sleep(time.Duration(d) * time.Millisecond)
			}
		}
		return false, nil
	})
	_, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Peers = []string{proxy.URL}
		c.MaxStale = maxStale
	})
	quiesce(t, ts.URL, 1)
	return peers[0], delay, ts.URL
}

// ingestDuringParkedRound ingests one point (the leading edge: a round
// departs and parks in the proxy delay), then a second point while that
// round is in flight, and waits for the parked round to install — a fold
// holding 2 points, left dirty by the third. It returns the instant the
// install was observed.
func ingestDuringParkedRound(t *testing.T, p *testPeer, delay *atomic.Int64, url string, s0 StatsResponse) time.Time {
	t.Helper()
	delay.Store(400)
	p.eng.Process(geom.Point{30, 30})
	time.Sleep(150 * time.Millisecond)
	p.eng.Process(geom.Point{60, 60})
	waitFor(t, 10*time.Second, "the parked round to install", func() bool {
		return gwStats(t, url).FedCacheMisses > s0.FedCacheMisses
	})
	return time.Now()
}

// TestPushRefreshPacedByQueries pins the pacing contract: background
// rounds follow demand, not ingest. An ingest landing during a parked
// round leaves the fold dirty, and while no query asks (and, at
// -max-stale -1, with no backstop) nothing re-folds it. One query then
// serves the dirty fold stale, starts exactly one round, and the next
// answer reflects every batch.
func TestPushRefreshPacedByQueries(t *testing.T) {
	p, delay, url := pacedGateway(t, 43, -1)
	s0 := gwStats(t, url)
	ingestDuringParkedRound(t, p, delay, url, s0)

	time.Sleep(time.Second) // no queries: nothing may ask for another round
	s1 := gwStats(t, url)
	if got := s1.BgRefreshes - s0.BgRefreshes; got != 1 {
		t.Fatalf("%d background rounds with no query asking, want 1 (the leading edge)", got)
	}
	if got := s1.FedCacheMisses - s0.FedCacheMisses; got != 1 {
		t.Fatalf("%d folds with no query asking, want 1", got)
	}

	q, hdr := getQuery(t, url)
	if q.Estimate != 2 || hdr.Get(StalenessHeader) == "0" {
		t.Fatalf("stale serve: estimate %.1f staleness %q, want the 2-point fold served stale",
			q.Estimate, hdr.Get(StalenessHeader))
	}
	waitFor(t, 10*time.Second, "the stale serve's round to install", func() bool {
		return gwStats(t, url).FedCacheMisses > s1.FedCacheMisses
	})
	q, hdr = getQuery(t, url)
	if q.Estimate != 3 || hdr.Get(StalenessHeader) != "0" {
		t.Fatalf("after the round: estimate %.1f staleness %q, want every batch (3) at staleness 0",
			q.Estimate, hdr.Get(StalenessHeader))
	}
	s2 := gwStats(t, url)
	if got := s2.BgRefreshes - s1.BgRefreshes; got != 1 {
		t.Fatalf("one stale serve started %d background rounds, want exactly 1", got)
	}
	if s2.SyncRefreshes != s0.SyncRefreshes {
		t.Fatalf("%d queries paid a synchronous refresh", s2.SyncRefreshes-s0.SyncRefreshes)
	}
}

// TestPushBackstopRefoldsUnqueriedFold pins the backstop: with a
// staleness bound and no query traffic, a fold left dirty by a mid-round
// ingest is re-folded in the background MaxStale/2 after the round —
// not at once — so the next query is served fresh without paying a
// synchronous refresh.
func TestPushBackstopRefoldsUnqueriedFold(t *testing.T) {
	const maxStale = 2 * time.Second
	p, delay, url := pacedGateway(t, 47, maxStale)
	s0 := gwStats(t, url)
	installed := ingestDuringParkedRound(t, p, delay, url, s0)

	waitFor(t, 10*time.Second, "the backstop round to start", func() bool {
		return gwStats(t, url).BgRefreshes-s0.BgRefreshes >= 2
	})
	// The stats poll can observe the install late but never the timer
	// early; the slack covers the poll interval.
	if waited := time.Since(installed); waited < maxStale/2-250*time.Millisecond {
		t.Fatalf("backstop round started %v after the install, want ≥ MaxStale/2 (%v)", waited, maxStale/2)
	}
	waitFor(t, 10*time.Second, "the backstop round to install", func() bool {
		return gwStats(t, url).FedCacheMisses-s0.FedCacheMisses >= 2
	})
	q, hdr := getQuery(t, url)
	if q.Estimate != 3 || hdr.Get(StalenessHeader) != "0" {
		t.Fatalf("after the backstop: estimate %.1f staleness %q, want every batch (3) at staleness 0",
			q.Estimate, hdr.Get(StalenessHeader))
	}
	s1 := gwStats(t, url)
	if got := s1.BgRefreshes - s0.BgRefreshes; got != 2 {
		t.Fatalf("%d background rounds, want 2 (leading edge + backstop)", got)
	}
	if s1.SyncRefreshes != s0.SyncRefreshes {
		t.Fatalf("%d queries paid a synchronous refresh", s1.SyncRefreshes-s0.SyncRefreshes)
	}
}

// TestPushPeerRestartRefolds pins the restart rule: a peer restarting
// behind the same URL counts its epoch from 0 again, below the epoch the
// watcher last saw. Asked for that old epoch, the new process answers at
// once, and the watcher takes any epoch change as an invalidation, so
// the new state is folded within one push — not once the new process
// overtakes the old epoch, while the old fold is served at staleness 0.
// The restart is a proxy switching to a fresh peer between long-polls,
// so the watcher sees no failure that would mark the fold dirty either.
func TestPushPeerRestartRefolds(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 53, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 2, 1)
	// The old incarnation: one group over three ingests (epoch 3). The new
	// one: three groups in one ingest (epoch 1).
	for _, p := range []geom.Point{{1, 1}, {1.1, 1.1}, {1.2, 1.2}} {
		peers[0].eng.Process(p)
	}
	peers[1].eng.ProcessBatch([]geom.Point{{1, 1}, {40, 40}, {80, 80}})

	var upstream atomic.Pointer[url.URL]
	upstream.Store(peerURL(t, peers[0]))
	proxy := httptest.NewServer(&httputil.ReverseProxy{
		Rewrite: func(r *httputil.ProxyRequest) { r.SetURL(upstream.Load()) },
		// Closing the gateway cancels its parked long-poll mid-flight.
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, _ error) { w.WriteHeader(http.StatusBadGateway) },
	})
	t.Cleanup(proxy.Close)

	_, ts := newTestGateway(t, opts, peers[:1], func(c *Config) { c.Peers = []string{proxy.URL} })
	quiesce(t, ts.URL, 1)

	upstream.Store(peerURL(t, peers[1])) // the peer restarts behind the same URL
	waitFor(t, 5*time.Second, "the restarted peer's state to be folded", func() bool {
		q, _ := getQuery(t, ts.URL)
		return q.Estimate == 3
	})
}

// TestGatewayWatchEndsOnClose pins that Close answers a parked GET
// /watch at once — unchanged, at the current export generation — so a
// watching higher tier cannot hold up the gateway's graceful shutdown.
func TestGatewayWatchEndsOnClose(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 59, StreamBound: 1 << 10, Kappa: 128}
	peers := newTestCluster(t, opts, 1, 1)
	gw, ts := newTestGateway(t, opts, peers, func(c *Config) { c.WatchTimeout = time.Minute })

	done := make(chan server.WatchResponse, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/watch?epoch=0")
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		defer resp.Body.Close()
		var wr server.WatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
			t.Error(err)
		}
		done <- wr
	}()
	// Nothing is folded, so the poll parks; a Close that overtakes it
	// answers it just the same.
	time.Sleep(50 * time.Millisecond)
	gw.Close()
	select {
	case wr := <-done:
		if wr.Changed || wr.Epoch != 0 {
			t.Fatalf("closed gateway's /watch answered %+v, want unchanged at generation 0", wr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a /watch long-poll parked")
	}
}

// peerURL parses a test peer's base URL.
func peerURL(t *testing.T, p *testPeer) *url.URL {
	t.Helper()
	u, err := url.Parse(p.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u
}
