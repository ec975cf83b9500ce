package main

// Per-layer metrics of the traced pass: stage histograms scraped from
// every process's /metrics around the measured phases, and an in-process
// replay of the stream's first batches through the repository's own
// packages, one layer at a time.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/window"
	"repro/pkg/sketch"
)

// replayBatches bounds the replayed prefix of the stream (400k points),
// so the traced pass has the same replay cost on every workload.
const replayBatches = 2000

// Repetitions of the replayed whole-sketch operations; their median is
// reported.
const (
	queryReps    = 1000
	snapshotReps = 3
	wireReps     = 5
)

type metrics map[string]metric

// set records a metric; a value that is not a finite number (a
// percentile of no samples) is left out.
func (m metrics) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// scrape fetches and parses one process's Prometheus text exposition
// into a map keyed "name{labels}". It does not reuse internal/loadgen's
// scraper: the benchmark imports only the packages it replays, so later
// changes to the repository's tooling cannot break it.
func scrape(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: HTTP %d", base, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scraping %s: malformed line %q", base, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: line %q: %w", base, line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func (f *fleet) scrapeAll(ctx context.Context, client *http.Client) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(f.procs))
	for i, p := range f.procs {
		m, err := scrape(ctx, client, p.url)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// deltas sums after−before of one series over the processes selected.
func deltas(before, after []map[string]float64, procs []int, series string) float64 {
	sum := 0.0
	for _, i := range procs {
		sum += after[i][series] - before[i][series]
	}
	return sum
}

// scrapedLayers turns the /metrics deltas of the measured phases into the
// server.* (summed over daemons) and cluster.* (gateway) metrics. Stages
// that saw no observations are left out.
func scrapedLayers(w workload, before, after []map[string]float64, out metrics) {
	daemons := make([]int, w.peers)
	for i := range daemons {
		daemons[i] = i
	}
	hist := func(procs []int, family, label, name string) (float64, bool) {
		n := deltas(before, after, procs, family+"_count{"+label+"}")
		if n == 0 {
			return 0, false
		}
		meanMS := deltas(before, after, procs, family+"_sum{"+label+"}") / n * 1e3
		out.set(name+"_ms", meanMS, "ms", int(n))
		out.set(name+"_count", n, "count", 0)
		return meanMS, true
	}
	for _, st := range []string{"parse", "ingest", "snapshot", "answer", "export"} {
		hist(daemons, "sketch_daemon_stage_seconds", `stage="`+st+`"`, "server."+st)
	}
	reqMS, haveReq := hist(daemons, "sketch_daemon_request_seconds", `path="/ingest"`, "server.request_ingest")
	out.set("server.sketch_cache_misses", deltas(before, after, daemons, "sketch_daemon_sketch_cache_misses_total"), "count", 0)
	out.set("server.watch_changed", deltas(before, after, daemons, "sketch_daemon_watch_changed_total"), "count", 0)
	if !w.cluster() {
		return
	}
	gw := []int{w.peers}
	var fwdMS float64
	haveFwd := false
	for _, st := range []string{"parse", "route", "forward", "refresh", "fetch", "deserialize", "merge", "answer"} {
		m, ok := hist(gw, "sketch_gateway_stage_seconds", `stage="`+st+`"`, "cluster."+st)
		if st == "forward" {
			fwdMS, haveFwd = m, ok
		}
	}
	for _, c := range []string{"bg_refreshes", "sync_refreshes", "fed_cache_misses", "peer_not_modified", "watch_pushes"} {
		out.set("cluster."+c, deltas(before, after, gw, "sketch_gateway_"+c+"_total"), "count", 0)
	}
	if q := deltas(before, after, gw, "sketch_gateway_queries_total"); q > 0 {
		out.set("cluster.folds_per_query", deltas(before, after, gw, "sketch_gateway_fed_cache_misses_total")/q, "ratio", int(q))
	}
	if haveFwd && haveReq {
		out.set("cluster.hop_ms", fwdMS-reqMS, "ms", 0)
	}
}

// replayLayers replays the stream's first batches in-process through the
// public functions of each layer, with one span per call, and records
// the pointio, cluster.route, core, f0, engine and sketch metrics.
func replayLayers(in *inputs, sent int, spans *spanLog, parent int, out metrics) error {
	w := in.w
	nb := min(sent, replayBatches)
	pts := float64(nb * batchSize)
	opts := core.Options{Alpha: alpha, Dim: w.dim, StreamBound: streamM, K: w.k, Seed: sysSeed, HighDim: true}
	win := window.Window{Kind: window.Time, W: w.window}

	// pointio: decode every body, as the daemon and the gateway do.
	batches := make([][]geom.Point, nb)
	var decodeErr error
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := timedCalls(spans, parent, "pointio.ReadBatch", nb, func(b int) {
		var err error
		batches[b], err = pointio.ReadBatch(bytes.NewReader(in.body(b)), pointio.BinaryContentType, w.dim)
		if err != nil && decodeErr == nil {
			decodeErr = err
		}
	})
	runtime.ReadMemStats(&m1)
	if decodeErr != nil {
		return fmt.Errorf("replaying pointio: %w", decodeErr)
	}
	out.set("pointio.decode_ns_per_pt", float64(d)/pts, "ns", int(pts))
	out.set("pointio.decode_allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/float64(nb), "count", nb)
	stamps := make([][]int64, nb)
	if in.stamps != nil {
		for b := range stamps {
			stamps[b] = make([]int64, batchSize)
			for i := range stamps[b] {
				stamps[b][i] = in.stamps[b]
			}
		}
	}

	// cluster: the gateway's per-batch routing and re-encoding.
	router, err := engine.NewRouterFromOptions(opts)
	if err != nil {
		return err
	}
	const peers = 3
	pl, err := engine.NewPlacement(peers, 1)
	if err != nil {
		return err
	}
	var buckets [peers][]geom.Point
	var bodies [peers][]byte
	d = timedCalls(spans, parent, "cluster.route", nb, func(b int) {
		for i := range buckets {
			buckets[i] = buckets[i][:0]
		}
		for _, p := range batches[b] {
			i := pl.Primary(router.Route(p))
			buckets[i] = append(buckets[i], p)
		}
		for i := range bodies {
			bodies[i] = pointio.AppendBinaryBatch(bodies[i][:0], buckets[i])
		}
	})
	out.set("cluster.route_ns_per_pt", float64(d)/pts, "ns", int(pts))

	// core: the single-threaded ℓ0-sampler (sliding-window when stamped)
	// under every workload's sketches, over the same stream.
	coreSk, err := coreSketch(opts, win)
	if err != nil {
		return err
	}
	d = feed(spans, parent, "core.ProcessBatch", coreSk, batches, stamps)
	out.set("core.process_ns_per_pt", float64(d)/pts, "ns", int(pts))
	out.set("core.space_words", float64(coreSk.Space()), "count", 0)
	if l0, ok := coreSk.(*sketch.L0); ok {
		out.set("core.rehashes", float64(l0.Sampler().Rehashes()), "count", 0)
	}
	var queryErr error
	d = timedCalls(spans, parent, "core.Query", queryReps, func(int) {
		if _, err := coreSk.Query(); err != nil && queryErr == nil {
			queryErr = err
		}
		if l0, ok := coreSk.(*sketch.L0); ok && w.k > 1 {
			if _, err := l0.QueryK(w.k); err != nil && queryErr == nil {
				queryErr = err
			}
		}
	})
	if queryErr != nil {
		return fmt.Errorf("replaying core queries: %w", queryErr)
	}
	out.set("core.query_ns", float64(d)/queryReps, "ns", queryReps)

	// f0: the robust distinct-count estimator over the same stream.
	f0Sk, err := sketch.NewF0(opts, f0Eps, f0Copies)
	if err != nil {
		return err
	}
	d = feed(spans, parent, "f0.ProcessBatch", f0Sk, batches, nil)
	out.set("f0.process_ns_per_pt", float64(d)/pts, "ns", int(pts))

	// engine: two shards, as every daemon runs.
	eng, err := newEngine(w, opts, win)
	if err != nil {
		return err
	}
	defer eng.Close()
	d = timedCalls(spans, parent, "engine.ProcessBatch", nb, func(b int) {
		if in.stamps != nil {
			eng.ProcessStampedBatch(batches[b], stamps[b])
		} else {
			eng.ProcessBatch(batches[b])
		}
	})
	d += timedCalls(spans, parent, "engine.Drain", 1, func(int) { eng.Drain() })
	out.set("engine.ingest_ns_per_pt", float64(d)/pts, "ns", int(pts))
	per := eng.Stats().PerShard
	fs := make([]float64, len(per))
	for i, n := range per {
		fs[i] = float64(n)
	}
	out.set("engine.shard_skew", slices.Max(fs)/mean(fs), "ratio", len(fs))
	snapMS := make([]float64, snapshotReps)
	for i := range snapMS {
		snapMS[i] = timeOne(spans, parent, "engine.Snapshot", func() { _, err = eng.Snapshot() })
		if err != nil {
			return fmt.Errorf("replaying engine snapshots: %w", err)
		}
	}
	out.set("engine.snapshot_ms", median(snapMS), "ms", snapshotReps)

	// sketch: the per-peer snapshots the gateway fetches, deserializes and
	// folds, partitioned the way it routes.
	fam := sketch.Sketch(f0Sk)
	if w.sketch != "f0" {
		fam = coreSk
	}
	return replayWire(fam, func(p geom.Point) int { return pl.Primary(router.Route(p)) }, peers, spans, parent, out)
}

// replayWire measures the federation path on the per-peer partitions of
// a sketch: Serialize, Deserialize, and Merge into a fresh copy of the
// first peer's sketch, as the gateway folds.
func replayWire(fam sketch.Sketch, route func(geom.Point) int, peers int, spans *spanLog, parent int, out metrics) error {
	part, ok := fam.(sketch.Partitionable)
	if !ok {
		return fmt.Errorf("%T cannot be partitioned", fam)
	}
	parts, err := part.Partition(peers, route)
	if err != nil {
		return err
	}
	blobs := make([][]byte, peers)
	decoded := make([]sketch.Sketch, peers)
	var serMS, desMS, mergeMS []float64
	allocs := uint64(0)
	var m0, m1 runtime.MemStats
	for rep := 0; rep < wireReps; rep++ {
		for i, sk := range parts {
			serMS = append(serMS, timeOne(spans, parent, "sketch.Serialize", func() { blobs[i], err = sk.Serialize() }))
			if err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m0)
		for i, b := range blobs {
			desMS = append(desMS, timeOne(spans, parent, "sketch.Deserialize", func() { decoded[i], err = sketch.Deserialize(b) }))
			if err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		recv, err := sketch.Deserialize(blobs[0])
		if err != nil {
			return err
		}
		m, ok := recv.(sketch.Mergeable)
		if !ok {
			return fmt.Errorf("%T is not mergeable", recv)
		}
		for _, o := range decoded[1:] {
			mergeMS = append(mergeMS, timeOne(spans, parent, "sketch.Merge", func() { err = m.Merge(o) }))
			if err != nil {
				return err
			}
		}
	}
	size := 0
	for _, b := range blobs {
		size += len(b)
	}
	out.set("sketch.serialize_ms", median(serMS), "ms", len(serMS))
	out.set("sketch.deserialize_ms", median(desMS), "ms", len(desMS))
	out.set("sketch.deserialize_allocs", float64(allocs)/float64(len(desMS)), "count", len(desMS))
	out.set("sketch.merge_ms", median(mergeMS), "ms", len(mergeMS))
	out.set("sketch.blob_bytes", float64(size), "bytes", peers)
	return nil
}

// coreSketch builds the single-threaded sampler of internal/core: the
// sliding-window sampler for a window, the ℓ0-sampler otherwise.
func coreSketch(opts core.Options, win window.Window) (sketch.Sketch, error) {
	if win.W > 0 {
		return sketch.NewWindowL0(opts, win)
	}
	return sketch.NewL0(opts)
}

func newEngine(w workload, opts core.Options, win window.Window) (*engine.Engine, error) {
	cfg := engine.Config{Shards: shards}
	switch {
	case w.window > 0:
		return engine.NewWindowSamplerEngine(opts, win, cfg)
	case w.sketch == "f0":
		return engine.NewF0Engine(opts, f0Eps, f0Copies, cfg)
	default:
		return engine.NewSamplerEngine(opts, cfg)
	}
}

// feed hands every batch to sk in stream order, stamped when stamps are
// given, and returns the time spent inside the sketch.
func feed(spans *spanLog, parent int, name string, sk sketch.Sketch, batches [][]geom.Point, stamps [][]int64) time.Duration {
	st, stamped := sk.(sketch.Stamped)
	return timedCalls(spans, parent, name, len(batches), func(b int) {
		if stamped && stamps[b] != nil {
			st.ProcessStampedBatch(batches[b], stamps[b])
		} else {
			sk.ProcessBatch(batches[b])
		}
	})
}

// timedCalls runs fn(0..n-1), records one span per call under a span for
// the whole stage, and returns the time spent inside fn.
func timedCalls(spans *spanLog, parent int, name string, n int, fn func(i int)) time.Duration {
	starts := make([]time.Time, n)
	durs := make([]time.Duration, n)
	stage := spans.begin(name, parent)
	var total time.Duration
	for i := 0; i < n; i++ {
		starts[i] = time.Now()
		fn(i)
		durs[i] = time.Since(starts[i])
		total += durs[i]
	}
	spans.end(stage)
	spans.calls(stage, name, starts, durs)
	return total
}

// timeOne runs fn once under its own span and returns its duration in
// milliseconds.
func timeOne(spans *spanLog, parent int, name string, fn func()) float64 {
	sp := spans.begin(name, parent)
	t := time.Now()
	fn()
	d := ms(time.Since(t))
	spans.end(sp)
	return d
}
