package server

// Daemon-side observability: the /stats scalars, declared once in a
// telemetry.Stats that renders both GET /stats and their /metrics
// families, plus the engine series, per-stage latency histograms,
// inbound X-Sketch-Trace handling, and the slow-query log.
// Instrumentation on the hot path is allocation-free: counters are
// atomic adds, histograms record atomically, spans are pooled and only
// opened when a request is traced or the slow-query log is armed.

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// daemonTelemetry holds the daemon's per-stage and per-endpoint latency
// histograms. All fields are nil when metrics are disabled; recording
// goes through telemetry.Observe, which tolerates that.
type daemonTelemetry struct {
	parse    *telemetry.Histogram // ingest body decode
	ingest   *telemetry.Histogram // engine batch hand-off
	snapshot *telemetry.Histogram // snapshot build/merge wait
	answer   *telemetry.Histogram // query answer from the snapshot
	export   *telemetry.Histogram // /sketch marshal (or cache hit)

	reqIngest *telemetry.Histogram
	reqQuery  *telemetry.Histogram
	reqSketch *telemetry.Histogram
}

// initTelemetry builds the slow-query log, declares the /stats
// scalars, and, unless disabled, the metrics registry: the engine
// series, the same declared scalars, and the latency histograms.
func (s *Server) initTelemetry() {
	s.slow = telemetry.NewSlowLog(s.cfg.SlowQuery, s.cfg.SlowQueryWriter)

	st := telemetry.NewStats("daemon")
	s.stats = st
	st.MetricGauge("start_time_seconds", "Unix time the server was built.",
		func() float64 { return float64(s.start.UnixNano()) / 1e9 })
	st.Gauge("uptime_seconds", "Seconds since the server was built.",
		func() float64 { return time.Since(s.start).Seconds() })
	st.Flag("restored_from_checkpoint", "1 if the engine was restored from a checkpoint.",
		func() bool { return s.cfg.Restored })
	st.Flag("windowed", "1 if this daemon serves time-windowed sketches.", s.cfg.Engine.Stamped)
	s.ingestRequests = st.Counter("ingest_requests", "POST /ingest calls served.")
	s.pointsIngested = st.Counter("points_ingested", "Points accepted over HTTP.")
	s.sketchCacheHits = st.Counter("sketch_cache_hits", "GET /sketch served from the cached marshal.")
	s.sketchCacheMisses = st.Counter("sketch_cache_misses", "GET /sketch re-serializations.")
	s.watchRequests = st.Counter("watch_requests", "GET /watch long-polls served.")
	s.watchChanged = st.Counter("watch_changed", "/watch answers reporting a changed epoch.")
	s.watchTimeouts = st.Counter("watch_timeouts", "/watch answers that timed out unchanged.")
	s.sketchAbsorbs = st.Counter("sketch_absorbs", "POST /sketch envelopes folded into the engine (read repair).")

	if s.cfg.NoMetrics {
		return
	}
	r := telemetry.NewRegistry()
	s.reg = r

	e := s.cfg.Engine
	counter := func(name, help string, fn func() float64) {
		r.CounterFunc("sketch_daemon_"+name, help, "", fn)
	}
	gauge := func(name, help string, fn func() float64) {
		r.GaugeFunc("sketch_daemon_"+name, help, "", fn)
	}
	gauge("engine_shards", "Number of engine worker shards.",
		func() float64 { return float64(e.Shards()) })
	counter("engine_enqueued_points_total", "Points handed to the engine.",
		func() float64 { return float64(e.Enqueued()) })
	counter("engine_processed_points_total", "Points folded into shard sketches.",
		func() float64 { return float64(e.Processed()) })
	for i := 0; i < e.Shards(); i++ {
		i := i
		r.CounterFunc("sketch_daemon_engine_shard_processed_points_total",
			"Points folded into one shard's sketch.",
			`shard="`+strconv.Itoa(i)+`"`,
			func() float64 { return float64(e.ShardProcessed(i)) })
	}
	gauge("engine_space_words", "Live sketch words summed over shards.",
		func() float64 { return float64(e.SpaceWords()) })
	gauge("engine_epoch", "Ingest epoch of the engine (resets on restart).",
		func() float64 { return float64(e.Epoch()) })
	counter("engine_snapshot_hits_total", "Snapshot-cache hits.",
		func() float64 { return float64(e.SnapshotHits()) })
	counter("engine_snapshot_misses_total", "Snapshot-cache rebuilds.",
		func() float64 { return float64(e.SnapshotMisses()) })
	st.Register(r)
	telemetry.RegisterBuildInfo(r, "daemon")

	stage := func(name string) *telemetry.Histogram {
		return r.NewHistogram("sketch_daemon_stage_seconds",
			"Per-stage request latency.", `stage="`+name+`"`)
	}
	s.tel.parse = stage("parse")
	s.tel.ingest = stage("ingest")
	s.tel.snapshot = stage("snapshot")
	s.tel.answer = stage("answer")
	s.tel.export = stage("export")
	req := func(path string) *telemetry.Histogram {
		return r.NewHistogram("sketch_daemon_request_seconds",
			"End-to-end handler latency.", `path="`+path+`"`)
	}
	s.tel.reqIngest = req("/ingest")
	s.tel.reqQuery = req("/query")
	s.tel.reqSketch = req("/sketch")
}

// MetricsRegistry returns the daemon's metrics registry, or nil when
// metrics are disabled.
func (s *Server) MetricsRegistry() *telemetry.Registry { return s.reg }

// beginTrace resolves the request's trace ID (the daemon only honors
// inbound IDs; the gateway is the minting tier), echoes it on the
// response, and opens a pooled span when the request is traced or the
// slow-query log is armed. Returns nil when no per-stage timings are
// needed — the common untraced case costs one header lookup.
//
//sketch:hotpath
func (s *Server) beginTrace(w http.ResponseWriter, r *http.Request) *telemetry.Span {
	trace := r.Header.Get(telemetry.TraceHeader)
	if trace != "" {
		w.Header().Set(telemetry.TraceHeader, trace)
	} else if !s.slow.Enabled() {
		return nil
	}
	return telemetry.NewSpan(trace)
}

// finishRequest closes out one instrumented request: records the
// end-to-end latency, feeds the slow-query log, and releases the span.
func (s *Server) finishRequest(span *telemetry.Span, reqHist *telemetry.Histogram, path string, status int, epoch int64, t0 time.Time) {
	total := time.Since(t0)
	if reqHist != nil {
		reqHist.Record(total)
	}
	if span == nil {
		return
	}
	s.slow.Maybe(telemetry.SlowEntry{
		Tier:   "daemon",
		Path:   path,
		Status: status,
		Epoch:  epoch,
	}, span, total)
	span.Release()
}
