package cluster

// Gateway-side observability: the /metrics registry mirroring every
// /stats counter (plus per-peer health series), per-stage latency
// histograms for the federated request path, X-Sketch-Trace minting and
// propagation, and the slow-query log. The scatter internals (peer
// fetch, deserialize, merge) record into global stage histograms — one
// query's slow-query line carries its own contiguous stages (refresh,
// answer), while the histograms expose the distribution of every fetch,
// decode, and fold the gateway performs, on or off the request path.

import (
	"context"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// gwTelemetry holds the gateway's per-stage and per-endpoint latency
// histograms. All fields are nil when metrics are disabled; recording
// goes through telemetry.Observe, which tolerates that.
type gwTelemetry struct {
	parse       *telemetry.Histogram // ingest body decode
	route       *telemetry.Histogram // per-point peer assignment
	forward     *telemetry.Histogram // routed sub-batch fan-out (wall clock)
	refresh     *telemetry.Histogram // request-path scatter rounds
	fetch       *telemetry.Histogram // one peer /sketch fetch inside a scatter
	deserialize *telemetry.Histogram // one envelope decode
	merge       *telemetry.Histogram // one Mergeable.Merge fold
	answer      *telemetry.Histogram // answer phase under cacheMu
	export      *telemetry.Histogram // /sketch union serialization

	reqIngest *telemetry.Histogram
	reqQuery  *telemetry.Histogram
	reqSketch *telemetry.Histogram
}

// initTelemetry builds the slow-query log and, unless disabled, the
// metrics registry mirroring the /stats surface.
func (g *Gateway) initTelemetry() {
	g.slow = telemetry.NewSlowLog(g.cfg.SlowQuery, g.cfg.SlowQueryWriter)
	if g.cfg.NoMetrics {
		return
	}
	r := telemetry.NewRegistry()
	g.reg = r

	counter := func(name, help string, fn func() float64) {
		r.CounterFunc("sketch_gateway_"+name, help, "", fn)
	}
	gauge := func(name, help string, fn func() float64) {
		r.GaugeFunc("sketch_gateway_"+name, help, "", fn)
	}
	b01 := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}

	gauge("peers", "Configured fleet size.",
		func() float64 { return float64(len(g.peers)) })
	gauge("peers_up", "Peers whose circuit breaker is closed.",
		func() float64 {
			up := 0
			for _, p := range g.peers {
				if p.up() {
					up++
				}
			}
			return float64(up)
		})
	gauge("replicas", "Configured replication factor (owners per routing cell).",
		func() float64 { return float64(g.cfg.Replicas) })
	gauge("quorum_ok", "1 while every routing cell has at least one live owner.",
		func() float64 { return b01(g.quorumOK()) })
	counter("replica_fanout_total", "Extra point copies routed to replica owners.",
		func() float64 { return float64(g.replicaFanout.Load()) })
	gauge("handoff_depth", "Sub-batches currently queued for hinted handoff.",
		func() float64 { return float64(g.handoffDepth.Load()) })
	counter("handoff_enqueued_total", "Sub-batches ever queued for hinted handoff.",
		func() float64 { return float64(g.handoffEnqueued.Load()) })
	counter("handoff_drains_total", "Queued sub-batches successfully replayed.",
		func() float64 { return float64(g.handoffDrained.Load()) })
	counter("handoff_drops_total", "Sub-batches lost to queue overflow or rejected replays.",
		func() float64 { return float64(g.handoffDropped.Load()) })
	counter("read_repairs_total", "Rejoined replicas repaired with their merged slice.",
		func() float64 { return float64(g.readRepairs.Load()) })
	gauge("start_time_seconds", "Unix time the gateway was built.",
		func() float64 { return float64(g.start.UnixNano()) / 1e9 })
	gauge("uptime_seconds", "Seconds since the gateway was built.",
		func() float64 { return time.Since(g.start).Seconds() })
	counter("ingest_requests_total", "POST /ingest calls served.",
		func() float64 { return float64(g.ingestRequests.Load()) })
	counter("points_routed_total", "Points forwarded to peers.",
		func() float64 { return float64(g.pointsRouted.Load()) })
	counter("queries_total", "GET /query and GET /sketch requests served.",
		func() float64 { return float64(g.queries.Load()) })
	counter("partial_queries_total", "Answers folded from a strict peer subset.",
		func() float64 { return float64(g.partialQueries.Load()) })
	counter("peer_not_modified_total", "Peer fetches answered 304.",
		func() float64 { return float64(g.peerNotModified.Load()) })
	counter("fed_bytes_saved_total", "Envelope bytes not re-transferred thanks to 304s.",
		func() float64 { return float64(g.fedBytesSaved.Load()) })
	counter("fed_cache_hits_total", "Scatter rounds that reused the merged union.",
		func() float64 { return float64(g.fedCacheHits.Load()) })
	counter("fed_cache_misses_total", "Scatter rounds that re-folded the union.",
		func() float64 { return float64(g.fedCacheMisses.Load()) })
	counter("fed_answer_hits_total", "Queries served from the per-k answer cache.",
		func() float64 { return float64(g.fedAnswerHits.Load()) })
	counter("peer_deserializes_total", "Sketch envelope deserializations performed.",
		func() float64 { return float64(g.peerDeserializes.Load()) })
	counter("sketch_merges_total", "Mergeable.Merge folds performed.",
		func() float64 { return float64(g.sketchMerges.Load()) })
	counter("not_modified_total", "The gateway's own 304s served to clients.",
		func() float64 { return float64(g.notModified.Load()) })
	counter("watch_pushes_total", "Epoch changes received over /watch long-polls.",
		func() float64 { return float64(g.watchPushes.Load()) })
	counter("bg_refreshes_total", "Scatter rounds run by the background refresher.",
		func() float64 { return float64(g.bgRefreshes.Load()) })
	counter("stale_serves_total", "Queries answered from the cached fold.",
		func() float64 { return float64(g.staleServes.Load()) })
	counter("sync_refreshes_total", "Queries that paid a synchronous refresh.",
		func() float64 { return float64(g.syncRefreshes.Load()) })
	gauge("max_staleness_seconds", "Maximum fold staleness observed at serve time.",
		func() float64 { return float64(g.maxStalenessNs.Load()) / 1e9 })
	for _, p := range g.peers {
		p := p
		lbl := `peer="` + telemetry.LabelValue(p.url) + `"`
		r.CounterFunc("sketch_gateway_peer_requests_total",
			"Requests issued to one peer (retries count once).", lbl,
			func() float64 { return float64(p.requests.Load()) })
		r.CounterFunc("sketch_gateway_peer_failures_total",
			"Requests to one peer that failed after all retries.", lbl,
			func() float64 { return float64(p.failures.Load()) })
		r.GaugeFunc("sketch_gateway_peer_up",
			"1 while the peer's circuit breaker is closed.", lbl,
			func() float64 { return b01(p.up()) })
		r.GaugeFunc("sketch_gateway_peer_watch_ok",
			"1 while the peer's watcher is healthy.", lbl,
			func() float64 { return b01(p.watchOK.Load()) })
	}
	telemetry.RegisterBuildInfo(r, "gateway")

	stage := func(name string) *telemetry.Histogram {
		return r.NewHistogram("sketch_gateway_stage_seconds",
			"Per-stage federated request latency.", `stage="`+name+`"`)
	}
	g.tel.parse = stage("parse")
	g.tel.route = stage("route")
	g.tel.forward = stage("forward")
	g.tel.refresh = stage("refresh")
	g.tel.fetch = stage("fetch")
	g.tel.deserialize = stage("deserialize")
	g.tel.merge = stage("merge")
	g.tel.answer = stage("answer")
	g.tel.export = stage("export")
	req := func(path string) *telemetry.Histogram {
		return r.NewHistogram("sketch_gateway_request_seconds",
			"End-to-end handler latency.", `path="`+path+`"`)
	}
	g.tel.reqIngest = req("/ingest")
	g.tel.reqQuery = req("/query")
	g.tel.reqSketch = req("/sketch")
}

// MetricsRegistry returns the gateway's metrics registry, or nil when
// metrics are disabled.
func (g *Gateway) MetricsRegistry() *telemetry.Registry { return g.reg }

// beginTrace resolves the request's trace ID — inbound X-Sketch-Trace
// wins, else the gateway mints one when Config.Trace is set — echoes it
// on the response, and attaches it to the returned context so every
// outbound peer request (routed ingest, scatter fetch) carries it. A
// pooled span is opened when the request is traced or the slow-query
// log is armed; nil otherwise, and the untraced path allocates nothing.
func (g *Gateway) beginTrace(w http.ResponseWriter, r *http.Request) (*telemetry.Span, context.Context) {
	ctx := r.Context()
	trace := r.Header.Get(telemetry.TraceHeader)
	if trace == "" && g.cfg.Trace {
		trace = telemetry.NewTraceID()
	}
	if trace != "" {
		w.Header().Set(telemetry.TraceHeader, trace)
		ctx = telemetry.WithTrace(ctx, trace)
	} else if !g.slow.Enabled() {
		return nil, ctx
	}
	return telemetry.NewSpan(trace), ctx
}

// finishRequest closes out one instrumented request: records the
// end-to-end latency, feeds the slow-query log (e carries the
// path/status/epoch-vector context; tier is filled here), and releases
// the span.
func (g *Gateway) finishRequest(span *telemetry.Span, reqHist *telemetry.Histogram, e telemetry.SlowEntry, t0 time.Time) {
	total := time.Since(t0)
	if reqHist != nil {
		reqHist.Record(total)
	}
	if span == nil {
		return
	}
	e.Tier = "gateway"
	g.slow.Maybe(e, span, total)
	span.Release()
}

// slowContextLocked captures the cache context of a slow-query line —
// the fold's epoch vector and staleness — only when a line could
// actually be emitted (the copy is off the fast path). Callers hold
// cacheMu.
func (g *Gateway) slowContextLocked(span *telemetry.Span, e *telemetry.SlowEntry) {
	if span == nil || !g.slow.Enabled() {
		return
	}
	e.EpochVector = append([]int64(nil), g.mergedEpochs...)
	e.StalenessMS = float64(g.foldStaleness(time.Now())) / 1e6
}
