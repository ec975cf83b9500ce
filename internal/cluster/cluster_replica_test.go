package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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

// TestReplicatedSurvivesSingleKill is ISSUE 10's acceptance scenario:
// with -replicas 2 over 4 peers, killing any single peer must not cost
// availability or accuracy — the federated estimate stays bit-identical
// to a sequential sampler on the same stream with partial: false,
// because every routing cell still has a live owner. A second kill
// breaks quorum and the answer degrades honestly. A short -max-stale
// makes each kill show in the fold within ~100ms instead of the 5s
// default, during which the complete pre-kill fold is served.
func TestReplicatedSurvivesSingleKill(t *testing.T) {
	const groups, dup = 300, 6
	pts := stream(groups, dup, 29)
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 43,
		StreamBound: len(pts) + 1,
		Kappa:       64, // threshold ≫ groups: exact regime, estimates comparable bit for bit
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

	peers := newTestCluster(t, opts, 4, 2)
	_, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Replicas = 2
		c.DownAfter = 1 // one observed failure opens the breaker: healthz/quorum react to the first failed watch or fetch
		c.MaxStale = 100 * time.Millisecond
	})

	resp, err := http.Post(ts.URL+"/ingest", pointio.BinaryContentType,
		bytes.NewReader(pointio.AppendBinaryBatch(nil, pts)))
	if err != nil {
		t.Fatal(err)
	}
	ir := mustJSON[server.IngestResponse](t, resp, http.StatusOK)
	if ir.Ingested != len(pts) {
		t.Fatalf("ingested %d of %d", ir.Ingested, len(pts))
	}

	// Every point landed on exactly its 2 owners: the engines hold 2×
	// the stream between them, and each peer got a share.
	var total int64
	for i, p := range peers {
		n := p.eng.Enqueued()
		if n == 0 {
			t.Fatalf("peer %d received no points", i)
		}
		total += n
	}
	if total != int64(2*len(pts)) {
		t.Fatalf("peers hold %d point copies, want exactly %d (2 owners per point)", total, 2*len(pts))
	}

	st := mustJSON[StatsResponse](t, mustGet(t, ts.URL+"/stats"), http.StatusOK)
	if st.Replicas != 2 || st.ReplicaFanout != int64(len(pts)) || !st.QuorumOK {
		t.Fatalf("replicated ingest stats %+v", st)
	}

	full := settle(t, ts.URL, peers)
	if full.Partial || full.PeersOK != 4 || full.Replicas != 2 {
		t.Fatalf("healthy query %+v", full)
	}
	if full.Estimate != seqRes.Estimate {
		t.Fatalf("healthy federated estimate %g, sequential %g", full.Estimate, seqRes.Estimate)
	}

	// Kill one peer: quorum holds, so the answer must be complete and
	// bit-identical — the dead peer's cells all have their second owner.
	peers[2].kill()
	var q QueryResponse
	waitFor(t, 10*time.Second, "a fold without the killed peer", func() bool {
		q, _ = getQuery(t, ts.URL)
		return q.PeersOK == 3
	})
	if q.Partial || len(q.FailedPeers) != 1 {
		t.Fatalf("single-kill query %+v", q)
	}
	if q.Estimate != seqRes.Estimate {
		t.Fatalf("single-kill estimate %g, want bit-identical %g", q.Estimate, seqRes.Estimate)
	}

	// /sketch export is likewise complete, not flagged partial.
	resp = mustGet(t, ts.URL+"/sketch")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Sketch-Partial") != "" {
		t.Fatalf("single-kill sketch status %d partial-header %q", resp.StatusCode, resp.Header.Get("X-Sketch-Partial"))
	}

	// Placement-aware health: one peer down at replicas=2 is reduced
	// redundancy, still ok, and quorum_ok stays true.
	body := healthzBody(t, ts.URL, http.StatusOK)
	if !strings.Contains(body, "reduced redundancy") {
		t.Fatalf("single-kill healthz %q, want reduced-redundancy wording", body)
	}
	st = mustJSON[StatsResponse](t, mustGet(t, ts.URL+"/stats"), http.StatusOK)
	if !st.QuorumOK || st.PeersUp != 3 {
		t.Fatalf("single-kill stats %+v", st)
	}

	// Kill a second peer: Replicas distinct owners are now down, some
	// cells may have no live owner — the gateway must degrade honestly.
	peers[0].kill()
	waitFor(t, 10*time.Second, "a fold without both killed peers", func() bool {
		q, _ = getQuery(t, ts.URL)
		return q.PeersOK == 2
	})
	if !q.Partial {
		t.Fatalf("double-kill query %+v", q)
	}
	body = healthzBody(t, ts.URL, http.StatusOK)
	if !strings.Contains(body, "degraded") {
		t.Fatalf("double-kill healthz %q, want degraded", body)
	}
	st = mustJSON[StatsResponse](t, mustGet(t, ts.URL+"/stats"), http.StatusOK)
	if st.QuorumOK {
		t.Fatalf("double-kill stats still claim quorum: %+v", st)
	}
}

// healthzBody fetches /healthz and returns its text body.
func healthzBody(t *testing.T, base string, wantCode int) string {
	t.Helper()
	resp := mustGet(t, base+"/healthz")
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("healthz status %d (want %d): %s", resp.StatusCode, wantCode, blob)
	}
	return string(blob)
}

// flaky is a toggleable 503 proxy in front of a test peer, so the peer
// can go down and come back (httptest servers close permanently).
type flaky struct {
	url    string
	down   atomic.Bool
	target atomic.Pointer[string] // the fronted peer; pointing it at an empty one is a restart that lost state
}

// flakyPeer starts a flaky proxy in front of target.
func flakyPeer(t *testing.T, target string) *flaky {
	t.Helper()
	f := &flaky{}
	f.target.Store(&target)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			http.Error(w, `{"error":"injected outage"}`, http.StatusServiceUnavailable)
			return
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, *f.target.Load()+r.URL.String(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)
	f.url = proxy.URL
	return f
}

// ingestOK posts batch through the gateway as packed binary, stamped
// when stamp > 0, and requires a 200 that ingested all of it.
func ingestOK(t *testing.T, url string, batch []geom.Point, stamp int64) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/ingest", bytes.NewReader(pointio.AppendBinaryBatch(nil, batch)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", pointio.BinaryContentType)
	if stamp > 0 {
		req.Header.Set(server.StampHeader, strconv.FormatInt(stamp, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ir := mustJSON[server.IngestResponse](t, resp, http.StatusOK); ir.Ingested != len(batch) {
		t.Fatalf("gateway ingested %d of %d", ir.Ingested, len(batch))
	}
}

// waitRepaired waits until the gateway has read-repaired a replica and
// returns its stats.
func waitRepaired(t *testing.T, url string) StatsResponse {
	t.Helper()
	var st StatsResponse
	waitFor(t, 10*time.Second, "a read repair", func() bool {
		st = gwStats(t, url)
		return st.ReadRepairs > 0
	})
	return st
}

// sameEstimate requires the replica's engine to estimate what the
// healthy owner's does.
func sameEstimate(t *testing.T, replica, owner *testPeer) {
	t.Helper()
	replica.eng.Drain()
	got, err := replica.eng.Query()
	if err != nil {
		t.Fatal(err)
	}
	want, err := owner.eng.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != want.Estimate {
		t.Fatalf("repaired replica estimates %g, healthy owner %g", got.Estimate, want.Estimate)
	}
}

// TestReadRepairAfterOutage: while a replica is down, ingest stays
// available (200) and no repair lands; once it recovers, read repair
// ships it the merged slice of the cells it owns, converging it to the
// full stream.
func TestReadRepairAfterOutage(t *testing.T) {
	const groups, dup = 200, 5
	pts := stream(groups, dup, 59)
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 47,
		StreamBound: len(pts) + 1,
		Kappa:       64,
	}
	peers := newTestCluster(t, opts, 2, 2)
	fp := flakyPeer(t, peers[1].ts.URL)

	_, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Peers = []string{peers[0].ts.URL, fp.url}
		c.Replicas = 2 // 2 of 2 peers: every cell is owned by both
		c.DownAfter = 1
		c.DownCooldown = 50 * time.Millisecond
	})

	// Warm ingest while healthy, then take the replica down.
	half := len(pts) / 2
	ingestOK(t, ts.URL, pts[:half], 0)
	fp.down.Store(true)
	for i := half; i < len(pts); i += 100 {
		ingestOK(t, ts.URL, pts[i:min(i+100, len(pts))], 0) // quorum met: never 502
	}
	if st := gwStats(t, ts.URL); st.ReadRepairs != 0 {
		t.Fatalf("down replica repaired: %+v", st)
	}

	fp.down.Store(false)
	waitRepaired(t, ts.URL)
	sameEstimate(t, peers[1], peers[0])
}

// TestReadRepairRefillsRestartedReplica: a replica whose breaker opened
// comes back from a restart without its state, having missed the writes
// of its outage too. Read repair alone must refill it with everything
// it owns: the stream from before the outage and the batches it missed.
func TestReadRepairRefillsRestartedReplica(t *testing.T) {
	const groups, dup = 200, 5
	pts := stream(groups, dup, 71)
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 53,
		StreamBound: len(pts) + 1,
		Kappa:       64,
	}
	peers := newTestCluster(t, opts, 3, 2)
	fp := flakyPeer(t, peers[1].ts.URL)

	_, ts := newTestGateway(t, opts, peers[:2], func(c *Config) {
		c.Peers = []string{peers[0].ts.URL, fp.url}
		c.Replicas = 2
		c.DownAfter = 1
		c.DownCooldown = 50 * time.Millisecond
	})

	half := len(pts) / 2
	ingestOK(t, ts.URL, pts[:half], 0)
	fp.down.Store(true)
	for i := half; i < len(pts); i += 100 {
		ingestOK(t, ts.URL, pts[i:min(i+100, len(pts))], 0)
	}
	// The restart: the replica comes back as an empty daemon.
	fp.target.Store(&peers[2].ts.URL)
	fp.down.Store(false)

	waitRepaired(t, ts.URL)
	if peers[2].eng.Enqueued() != 0 {
		t.Fatalf("the restarted replica was sent %d points by ingest, want all of its state by repair", peers[2].eng.Enqueued())
	}
	sameEstimate(t, peers[2], peers[0])
}

// TestReadRepairAfterFailedForward: one forward to a replica fails
// while its breaker stays closed (newTestGateway's DownAfter is 1000).
// The failed forward alone marks the replica, and with both peers up
// read repair delivers the batch it missed.
func TestReadRepairAfterFailedForward(t *testing.T) {
	const groups, dup = 200, 5
	pts := stream(groups, dup, 89)
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 67,
		StreamBound: len(pts) + 1,
		Kappa:       64,
	}
	peers := newTestCluster(t, opts, 2, 2)
	fp := flakyPeer(t, peers[1].ts.URL)

	_, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Peers = []string{peers[0].ts.URL, fp.url}
		c.Replicas = 2
	})

	half := len(pts) / 2
	ingestOK(t, ts.URL, pts[:half], 0)
	fp.down.Store(true)
	ingestOK(t, ts.URL, pts[half:], 0)
	fp.down.Store(false)

	st := waitRepaired(t, ts.URL)
	if st.PeersUp != 2 {
		t.Fatalf("a breaker opened: %+v", st)
	}
	if got := peers[1].eng.Enqueued(); got != int64(half) {
		t.Fatalf("the replica ingested %d points, want the %d before the failed forward", got, half)
	}
	sameEstimate(t, peers[1], peers[0])
}

// TestReplicatedIngestBucketsMatchPlacement pins the ingest fan-out to
// the placement function: a point's sub-batch copies go to exactly the
// owners Placement reports for its routing cell.
func TestReplicatedIngestBucketsMatchPlacement(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 61, StreamBound: 1 << 12, Kappa: 64}
	pts := stream(100, 3, 83)
	peers := newTestCluster(t, opts, 4, 1)
	gw, ts := newTestGateway(t, opts, peers, func(c *Config) { c.Replicas = 3 })

	resp, err := http.Post(ts.URL+"/ingest", pointio.BinaryContentType,
		bytes.NewReader(pointio.AppendBinaryBatch(nil, pts)))
	if err != nil {
		t.Fatal(err)
	}
	mustJSON[server.IngestResponse](t, resp, http.StatusOK)

	pl, err := engine.NewPlacement(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 4)
	for _, p := range pts {
		for _, o := range pl.Owners(gw.cfg.Router.Route(geom.Point(p)), nil) {
			want[o]++
		}
	}
	for i, p := range peers {
		if got := p.eng.Enqueued(); got != want[i] {
			t.Fatalf("peer %d enqueued %d points, placement says %d", i, got, want[i])
		}
	}
}
