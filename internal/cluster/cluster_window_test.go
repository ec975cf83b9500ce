package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/internal/window"
	"repro/pkg/sketch"
)

// newWindowedCluster spins up n in-process windowed sketchd peers.
func newWindowedCluster(t *testing.T, opts core.Options, win window.Window, n, shards int) []*testPeer {
	t.Helper()
	peers := make([]*testPeer, n)
	for i := range peers {
		eng, err := engine.NewWindowSamplerEngine(opts, win, engine.Config{Shards: shards})
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

// liveGroups counts the groups a window sketch holds live.
func liveGroups(wl *sketch.WindowL0) int {
	total := 0
	for _, n := range wl.WindowSampler().AcceptSizes() {
		total += n
	}
	return total
}

// windowSnapshot returns a windowed peer's merged snapshot.
func windowSnapshot(t *testing.T, p *testPeer) *sketch.WindowL0 {
	t.Helper()
	sk, err := p.eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sk.(*sketch.WindowL0)
}

// TestWindowedClusterFederation is the acceptance round trip for windowed
// serving across the cluster tier: stamped batches ingested through the
// gateway land on exactly one windowed peer each, the gateway federates
// GET /sketch → sketch.Deserialize → Merge, and the folded window holds
// exactly the live groups a sequential WindowSampler tracks on the same
// stamped stream.
func TestWindowedClusterFederation(t *testing.T) {
	const groups, steps = 150, 24_000
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 61,
		StreamBound: steps + 1,
		Kappa:       64, // exact regime
	}
	win := window.Window{Kind: window.Time, W: 5000}

	var pts []geom.Point
	var stamps []int64
	for i := 0; i < steps; i++ {
		g := i % groups
		if g < groups/2 && i > steps*3/5 {
			g += groups / 2
		}
		pts = append(pts, geom.Point{float64(g%64) * 10, float64(g/64)*10 + float64(i%3)*0.1})
		stamps = append(stamps, int64(i+1))
	}

	peers := newWindowedCluster(t, opts, win, 3, 2)
	_, gwts := newTestGateway(t, opts, peers, nil)

	// Sequential reference fed the same batch-quantized stamps the
	// gateway forwards.
	seq, err := sketch.NewWindowL0(opts, win)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 600
	for lo := 0; lo < len(pts); lo += chunk {
		hi := min(lo+chunk, len(pts))
		stamp := stamps[hi-1]
		body := pointio.AppendBinaryBatch(nil, pts[lo:hi])
		req, err := http.NewRequest(http.MethodPost, gwts.URL+"/ingest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", pointio.BinaryContentType)
		req.Header.Set(server.StampHeader, fmt.Sprintf("%d", stamp))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		ir := mustJSON[server.IngestResponse](t, resp, http.StatusOK)
		if ir.Ingested != hi-lo {
			t.Fatalf("gateway ingested %d of %d", ir.Ingested, hi-lo)
		}
		for _, p := range pts[lo:hi] {
			seq.ProcessAt(p, stamp)
		}
	}

	// Exactly-once routing: peer ingest totals must sum to the stream.
	var routed int64
	for _, p := range peers {
		routed += p.eng.Enqueued()
	}
	if routed != int64(len(pts)) {
		t.Fatalf("peers ingested %d points in total, want %d", routed, len(pts))
	}

	// Federated query answers with a sample over the live window, once
	// every routed batch is folded.
	qr := settle(t, gwts.URL, peers)
	if qr.Partial || qr.PeersOK != 3 || qr.Sample == nil {
		t.Fatalf("federated windowed query = %+v", qr)
	}

	// The gateway's /sketch export is the full Deserialize+Merge round
	// trip: fold it once more into a fresh sketch and compare live groups
	// with the sequential sampler, exactly.
	resp, err := http.Get(gwts.URL + "/sketch")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway /sketch status %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := sketch.KindOf(blob); err != nil || kind != sketch.KindWindowL0 {
		t.Fatalf("gateway /sketch kind = %v err = %v", kind, err)
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
	if got, want := liveGroups(fresh), liveGroups(seq); got != want {
		t.Fatalf("federated window holds %d live groups, sequential %d", got, want)
	}
	if got, want := fresh.WindowSampler().Now(), seq.WindowSampler().Now(); got != want {
		t.Fatalf("federated clock %d != sequential %d", got, want)
	}
}

// TestReadRepairWindowedReplica: a time-windowed replica that is down
// for the last stretch of a stamped stream (still inside the window at
// the end) is repaired to the healthy owner's window: the same live
// groups and the same clock.
func TestReadRepairWindowedReplica(t *testing.T) {
	const groups, steps, chunk, downFrom = 150, 12_000, 600, 7_800
	opts := core.Options{
		Alpha: 1, Dim: 2, Seed: 73,
		StreamBound: steps + 1,
		Kappa:       64,
	}
	win := window.Window{Kind: window.Time, W: 5000}
	peers := newWindowedCluster(t, opts, win, 2, 2)
	fp := flakyPeer(t, peers[1].ts.URL)
	_, ts := newTestGateway(t, opts, peers, func(c *Config) {
		c.Peers = []string{peers[0].ts.URL, fp.url}
		c.Replicas = 2
		c.DownAfter = 1
		c.DownCooldown = 50 * time.Millisecond
	})

	for lo := 0; lo < steps; lo += chunk {
		batch := make([]geom.Point, 0, chunk)
		for i := lo; i < lo+chunk; i++ {
			g := i % groups
			if g < groups/2 && i > steps/2 {
				g += groups / 2
			}
			batch = append(batch, geom.Point{float64(g%64) * 10, float64(g/64)*10 + float64(i%3)*0.1})
		}
		stamp := int64(lo + chunk)
		fp.down.Store(stamp > downFrom)
		ingestOK(t, ts.URL, batch, stamp)
	}
	if got := windowSnapshot(t, peers[1]).WindowSampler().Now(); got != downFrom {
		t.Fatalf("the replica's clock reads %d before recovery, want %d", got, downFrom)
	}

	fp.down.Store(false)
	waitRepaired(t, ts.URL)
	got, want := windowSnapshot(t, peers[1]), windowSnapshot(t, peers[0])
	if g, w := liveGroups(got), liveGroups(want); g != w {
		t.Fatalf("repaired replica holds %d live groups, healthy owner %d", g, w)
	}
	if g, w := got.WindowSampler().Now(), want.WindowSampler().Now(); g != w {
		t.Fatalf("repaired replica's clock reads %d, healthy owner's %d", g, w)
	}
}
