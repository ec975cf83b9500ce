package cluster

// Gateway-side observability: the /stats scalars, declared once in a
// telemetry.Stats that renders both GET /stats and their /metrics
// families, plus per-peer health series, per-stage latency histograms
// for the federated request path, X-Sketch-Trace minting and
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

// initTelemetry builds the slow-query log, declares the /stats
// scalars, and, unless disabled, the metrics registry: the same
// declared scalars, the per-peer series, and the latency histograms.
func (g *Gateway) initTelemetry() {
	g.slow = telemetry.NewSlowLog(g.cfg.SlowQuery, g.cfg.SlowQueryWriter)

	st := telemetry.NewStats("gateway")
	g.stats = st
	st.MetricGauge("peers", "Configured fleet size.",
		func() float64 { return float64(len(g.peers)) })
	st.Gauge("peers_up", "Peers whose circuit breaker is closed.",
		func() float64 { return float64(g.peersUp()) })
	st.Gauge("replicas", "Configured replication factor (owners per routing cell).",
		func() float64 { return float64(g.cfg.Replicas) })
	st.Flag("quorum_ok", "1 while every routing cell has at least one live owner.", g.quorumOK)
	g.replicaFanout = st.Counter("replica_fanout", "Extra point copies routed to replica owners.")
	st.Gauge("handoff_depth", "Sub-batches currently queued for hinted handoff.",
		func() float64 { return float64(g.handoffDepth.Load()) })
	g.handoffEnqueued = st.Counter("handoff_enqueued", "Sub-batches ever queued for hinted handoff.")
	g.handoffDrained = st.Counter("handoff_drains", "Queued sub-batches successfully replayed.")
	g.handoffDropped = st.Counter("handoff_drops", "Sub-batches lost to queue overflow or rejected replays.")
	g.readRepairs = st.Counter("read_repairs", "Rejoined replicas repaired with their merged slice.")
	st.MetricGauge("start_time_seconds", "Unix time the gateway was built.",
		func() float64 { return float64(g.start.UnixNano()) / 1e9 })
	st.Gauge("uptime_seconds", "Seconds since the gateway was built.",
		func() float64 { return time.Since(g.start).Seconds() })
	g.ingestRequests = st.Counter("ingest_requests", "POST /ingest calls served.")
	g.pointsRouted = st.Counter("points_routed", "Points forwarded to peers.")
	g.queries = st.Counter("queries", "GET /query and GET /sketch requests served.")
	g.partialQueries = st.Counter("partial_queries", "Answers folded from a strict peer subset.")
	g.fedCacheMisses = st.Counter("fed_cache_misses", "Scatter rounds that folded and installed the union.")
	g.peerDeserializes = st.Counter("peer_deserializes", "Peer sketch envelopes decoded, as a fold receiver or into one.")
	g.sketchMerges = st.Counter("sketch_merges", "Peer sketches folded into a fold receiver.")
	g.watchPushes = st.Counter("watch_pushes", "Epoch changes received over /watch long-polls.")
	g.bgRefreshes = st.Counter("bg_refreshes", "Scatter rounds run by the background refresher.")
	g.staleServes = st.Counter("stale_serves", "Queries answered from the cached fold.")
	g.syncRefreshes = st.Counter("sync_refreshes", "Queries that paid a synchronous refresh.")
	// /stats reports this one in milliseconds, as max_staleness_ms.
	st.MetricGauge("max_staleness_seconds", "Maximum fold staleness observed at serve time.",
		func() float64 { return float64(g.maxStalenessNs.Load()) / 1e9 })

	if g.cfg.NoMetrics {
		return
	}
	r := telemetry.NewRegistry()
	g.reg = r
	st.Register(r)
	b01 := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
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
