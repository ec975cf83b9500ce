// Package server exposes a sharded sketch engine over HTTP: the ingest
// and query daemon behind cmd/sketchd. It turns the in-process
// engine.Engine into a network service:
//
//	POST /ingest      — NDJSON or binary point batches → Engine.ProcessBatch
//	GET  /query       — answer from the engine's cached merged snapshot
//	GET  /sketch      — the serialized merged snapshot (versioned envelope)
//	GET  /stats       — engine counters + server counters as JSON
//	POST /checkpoint  — atomically write the engine state to disk
//	GET  /healthz     — liveness probe
//
// GET /sketch is what federates daemons: internal/cluster's gateway
// fetches the serialized snapshots of many sketchd peers, Deserializes
// them, and folds them with Mergeable.Merge into one logical sketch.
//
// A server over a time-windowed engine (Engine.Stamped) stamps ingest
// batches (X-Sketch-Stamp header, or the server clock in Unix seconds)
// and answers queries over the current sliding window. Windowed
// snapshots serialize and merge like every other family, so windowed
// daemons federate through the gateway unchanged.
//
// The handler is an http.Handler; the caller owns the http.Server and the
// engine's lifecycle (cmd/sketchd wires up graceful shutdown and startup
// -restore). Endpoint and wire-format details live in docs/server.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/f0"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/telemetry"
	"repro/pkg/sketch"
)

// errUnsupportedK marks a ?k= request against a sketch family without
// multi-sampling — a client error, not an engine state problem.
var errUnsupportedK = errors.New("server: sketch does not support k>1 samples")

// Config configures a Server.
type Config struct {
	// Engine is the sharded sketch engine to serve. Required; the caller
	// retains ownership (the server never closes it).
	Engine *engine.Engine

	// Dim is the point dimension used to parse ingest bodies. Required.
	Dim int

	// CheckpointPath is where POST /checkpoint writes the engine state.
	// Empty disables the endpoint.
	CheckpointPath string

	// Restored records that the engine was restored from a checkpoint
	// before the server was built; surfaced in GET /stats so operators can
	// tell a restore from a cold start.
	Restored bool

	// Clock returns the stamp assigned to ingest requests without an
	// explicit X-Sketch-Stamp header. Defaults to Unix seconds — the
	// window width is then a duration in seconds over ingest time. Only
	// consulted when the engine is time-windowed (Engine.Stamped): every
	// ingest batch is then stamped — with the X-Sketch-Stamp request
	// header when the client provides one, with Clock otherwise — and
	// handed to Engine.ProcessStampedBatch. Client stamps may arrive
	// late: a point stamped the window width or more behind the latest
	// stamp is dropped, and a later one keeps its group in the window
	// until the group's newest point leaves it (docs/server.md,
	// "Windowed serving").
	Clock func() int64

	// NoMetrics disables the GET /metrics Prometheus exposition endpoint
	// and the per-stage latency histograms behind it. Inbound trace IDs
	// are still echoed and the slow-query log still works.
	NoMetrics bool

	// SlowQuery arms the slow-query log: any instrumented request slower
	// than this threshold emits one structured JSON line (schema in
	// docs/observability.md) to SlowQueryWriter. Zero disables it.
	SlowQuery time.Duration

	// SlowQueryWriter receives slow-query log lines. Defaults to
	// os.Stderr.
	SlowQueryWriter io.Writer
}

// MaxBodyBytes caps one request body on both HTTP tiers: a daemon's
// POST /ingest and POST /sketch, and a gateway's POST /ingest. Larger
// bodies answer 413.
const MaxBodyBytes = 64 << 20

// watchCeiling bounds how long a GET /watch long-poll may block before
// answering with the unchanged epoch: a client ?timeout= shorter than
// this is honored, a longer one is clamped.
const watchCeiling = 30 * time.Second

// StampHeader is the ingest request header carrying the batch's explicit
// timestamp on windowed daemons (decimal int64; one stamp for the whole
// batch). The cluster gateway forwards it unchanged when routing.
const StampHeader = "X-Sketch-Stamp"

// EpochHeader is the response header stamping GET /sketch and GET /query
// answers with the ingest epoch of the snapshot they were served from,
// and GET /watch answers with the watched epoch: the one signal that
// state moved (a gateway stamps its export generation instead). Every
// ingest moves it, and a restart counts from 0 again. The cluster
// gateway reports it per peer in X-Sketch-Epoch-Vector.
const EpochHeader = "X-Sketch-Epoch"

// Server is the HTTP front end. All handlers are safe for concurrent use;
// ingest and query scale independently (queries hit the engine's snapshot
// cache, so a read-heavy load between ingests costs one merge total).
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// Per-epoch marshal cache for GET /sketch: serializing the merged
	// snapshot is O(entries) with real allocations, and between ingests
	// every export produces identical bytes — so the serialized envelope
	// is kept alongside the engine's snapshot cache and invalidated by
	// the same epoch. Guarded by sketchMu.
	sketchMu    sync.Mutex
	sketchBlob  []byte
	sketchEpoch int64
	sketchValid bool

	// The /stats counters, owned by stats (declared in initTelemetry,
	// where each one's meaning is its help text).
	stats             *telemetry.Stats
	ingestRequests    *atomic.Int64
	pointsIngested    *atomic.Int64
	sketchCacheHits   *atomic.Int64
	sketchCacheMisses *atomic.Int64
	watchRequests     *atomic.Int64
	watchChanged      *atomic.Int64
	watchTimeouts     *atomic.Int64
	sketchAbsorbs     *atomic.Int64

	reg  *telemetry.Registry // /metrics families; nil when NoMetrics
	slow *telemetry.SlowLog
	tel  daemonTelemetry
}

// New builds a Server around an engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("server: Config.Dim must be ≥ 1, got %d", cfg.Dim)
	}
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().Unix() }
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.initTelemetry()
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /sketch", s.handleSketch)
	s.mux.HandleFunc("POST /sketch", s.handleAbsorb)
	s.mux.HandleFunc("GET /watch", s.handleWatch)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.reg != nil {
		s.mux.Handle("GET /metrics", s.reg)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// IngestResponse is the JSON body of a successful POST /ingest.
type IngestResponse struct {
	// Ingested is the number of points accepted from this request.
	Ingested int `json:"ingested"`
	// TotalPoints is the number of points handed to the engine since start
	// (or restore), across all clients.
	TotalPoints int64 `json:"total_points"`
}

// QueryResponse is the JSON body of a successful GET /query.
type QueryResponse struct {
	// Estimate is the sketch's distinct-count estimate; -1 (NoEstimate)
	// for sample-only sketches.
	Estimate float64 `json:"estimate"`
	// Sample is one robust distinct sample; omitted for estimate-only
	// sketches.
	Sample []float64 `json:"sample,omitempty"`
	// Samples holds k samples without replacement when ?k= is given and
	// the sketch supports multi-sampling.
	Samples [][]float64 `json:"samples,omitempty"`
	// SpaceWords is the merged snapshot's live size in words.
	SpaceWords int `json:"space_words"`
}

// WatchResponse is the JSON body of GET /watch — the long-poll epoch
// notification the cluster gateway's push watchers consume.
type WatchResponse struct {
	// Epoch is the watched epoch at response time: a daemon's ingest
	// epoch, or a gateway's export generation.
	Epoch int64 `json:"epoch"`
	// Changed reports whether Epoch differs from the ?epoch= the client
	// was watching from (false means the poll timed out unchanged).
	Changed bool `json:"changed"`
}

// StatsResponse is the JSON body of GET /stats.
type StatsResponse struct {
	// Engine mirrors engine.Stats.
	Engine engine.Stats `json:"engine"`
	// Version is the binary's build version (ldflags or module info).
	Version string `json:"version"`
	// Commit is the binary's VCS revision, when known.
	Commit string `json:"commit"`
	// StartedAt is when the server was built (RFC 3339).
	StartedAt string `json:"started_at"`
	// UptimeSeconds is the time since the server was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RestoredFromCheckpoint reports whether the engine behind this server
	// was restored from a checkpoint at startup rather than cold-started.
	RestoredFromCheckpoint bool `json:"restored_from_checkpoint"`
	// IngestRequests counts POST /ingest calls served.
	IngestRequests int64 `json:"ingest_requests"`
	// PointsIngested counts points accepted over HTTP (TotalPoints may be
	// larger after a -restore, which also restores the engine counters).
	PointsIngested int64 `json:"points_ingested"`
	// Windowed reports whether this daemon serves time-windowed sketches
	// (ingest batches are stamped; queries answer over the current window).
	Windowed bool `json:"windowed"`
	// SketchCacheHits counts GET /sketch responses served from the
	// per-epoch cached marshal without re-serializing.
	SketchCacheHits int64 `json:"sketch_cache_hits"`
	// SketchCacheMisses counts GET /sketch responses that had to
	// serialize the snapshot (the epoch moved since the last export).
	SketchCacheMisses int64 `json:"sketch_cache_misses"`
	// WatchRequests counts GET /watch long-polls served.
	WatchRequests int64 `json:"watch_requests"`
	// WatchChanged counts /watch answers that reported a changed epoch
	// (immediately or after blocking).
	WatchChanged int64 `json:"watch_changed"`
	// WatchTimeouts counts /watch answers that timed out with the epoch
	// unchanged.
	WatchTimeouts int64 `json:"watch_timeouts"`
	// SketchAbsorbs counts POST /sketch envelopes folded into the engine
	// — read-repair deliveries from a cluster gateway after this daemon
	// rejoined the fleet.
	SketchAbsorbs int64 `json:"sketch_absorbs"`
}

// CheckpointResponse is the JSON body of a successful POST /checkpoint.
type CheckpointResponse struct {
	// Path is the file the checkpoint was written to.
	Path string `json:"path"`
	// Bytes is the size of the written checkpoint.
	Bytes int64 `json:"bytes"`
	// Points is the number of points captured by the checkpoint.
	Points int64 `json:"points"`
}

// ErrorResponse is the JSON body of every non-2xx response — one shape
// across the whole HTTP surface (single daemon and cluster gateway).
type ErrorResponse struct {
	// Error is the error message.
	Error string `json:"error"`
}

// WriteJSON writes v as the JSON response body with the given status.
// Shared by every HTTP tier so response framing cannot drift.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes err as an ErrorResponse with the given status.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span := s.beginTrace(w, r)
	s.ingestRequests.Add(1)
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	tp := time.Now()
	pts, err := pointio.ReadBatch(body, r.Header.Get("Content-Type"), s.cfg.Dim)
	telemetry.Observe(s.tel.parse, span, "parse", time.Since(tp))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteError(w, status, err)
		s.finishRequest(span, s.tel.reqIngest, "/ingest", status, s.cfg.Engine.Epoch(), t0)
		return
	}
	ti := time.Now()
	if s.cfg.Engine.Stamped() {
		stamp, err := ingestStamp(r, s.cfg.Clock)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			s.finishRequest(span, s.tel.reqIngest, "/ingest", http.StatusBadRequest, s.cfg.Engine.Epoch(), t0)
			return
		}
		stamps := make([]int64, len(pts))
		for i := range stamps {
			stamps[i] = stamp
		}
		s.cfg.Engine.ProcessStampedBatch(pts, stamps)
	} else {
		s.cfg.Engine.ProcessBatch(pts)
	}
	telemetry.Observe(s.tel.ingest, span, "ingest", time.Since(ti))
	s.pointsIngested.Add(int64(len(pts)))
	WriteJSON(w, http.StatusOK, IngestResponse{
		Ingested:    len(pts),
		TotalPoints: s.cfg.Engine.Enqueued(),
	})
	s.finishRequest(span, s.tel.reqIngest, "/ingest", http.StatusOK, s.cfg.Engine.Epoch(), t0)
}

// ingestStamp resolves the timestamp of one windowed ingest batch: the
// client's X-Sketch-Stamp header when present, the server clock otherwise.
func ingestStamp(r *http.Request, clock func() int64) (int64, error) {
	h := r.Header.Get(StampHeader)
	if h == "" {
		return clock(), nil
	}
	v, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("server: bad %s %q: %w", StampHeader, h, err)
	}
	return v, nil
}

// ParseK extracts the ?k= multi-sample parameter of a query request
// (default 1).
func ParseK(r *http.Request) (int, error) {
	kq := r.URL.Query().Get("k")
	if kq == "" {
		return 1, nil
	}
	v, err := strconv.Atoi(kq)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("server: bad k %q", kq)
	}
	return v, nil
}

// AnswerQuery builds the query response from a sketch, with k samples
// without replacement when k > 1 — the answer logic shared by the
// single-daemon /query handler and internal/cluster's federated one, so
// the two tiers cannot drift. Map the error to a status with
// QueryErrorStatus.
func AnswerQuery(sk sketch.Sketch, k int) (QueryResponse, error) {
	var resp QueryResponse
	res, err := sk.Query()
	if err != nil {
		return resp, err
	}
	resp.Estimate = res.Estimate
	resp.Sample = res.Sample
	resp.SpaceWords = sk.Space()
	if k > 1 {
		multi, ok := sk.(interface {
			QueryK(int) ([]geom.Point, error)
		})
		if !ok {
			return resp, fmt.Errorf("%w (%T)", errUnsupportedK, sk)
		}
		samples, err := multi.QueryK(k)
		if err != nil {
			return resp, err
		}
		resp.Samples = make([][]float64, len(samples))
		for i, p := range samples {
			resp.Samples[i] = p
		}
	}
	return resp, nil
}

// QueryErrorStatus maps an AnswerQuery error to its HTTP status: 400 for
// a k the sketch cannot serve (client error), 409 when there is nothing
// to answer from (empty engine, or the algorithm's low-probability
// failure event emptied the accept set), 500 for anything else — a
// non-mergeable sketch, a snapshot build failure.
func QueryErrorStatus(err error) int {
	switch {
	case errors.Is(err, errUnsupportedK):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrEmptySketch), errors.Is(err, f0.ErrNoEstimate):
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span := s.beginTrace(w, r)
	k, err := ParseK(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		s.finishRequest(span, s.tel.reqQuery, "/query", http.StatusBadRequest, 0, t0)
		return
	}
	var (
		resp  QueryResponse
		epoch int64
	)
	ts := time.Now()
	err = s.cfg.Engine.WithSnapshotEpoch(func(sk sketch.Sketch, ep int64) error {
		// Time until the closure runs is the snapshot stage: the wait for
		// the engine's drain + merged-snapshot (re)build.
		telemetry.Observe(s.tel.snapshot, span, "snapshot", time.Since(ts))
		epoch = ep
		ta := time.Now()
		var qerr error
		resp, qerr = AnswerQuery(sk, k)
		telemetry.Observe(s.tel.answer, span, "answer", time.Since(ta))
		return qerr
	})
	if err != nil {
		status := QueryErrorStatus(err)
		WriteError(w, status, err)
		s.finishRequest(span, s.tel.reqQuery, "/query", status, epoch, t0)
		return
	}
	w.Header().Set(EpochHeader, strconv.FormatInt(epoch, 10))
	WriteJSON(w, http.StatusOK, resp)
	s.finishRequest(span, s.tel.reqQuery, "/query", http.StatusOK, epoch, t0)
}

// handleWatch is the push-propagation hook: a long-poll over the
// engine's ingest epoch (WaitWatch) that costs the ingest path no locks.
// A ?epoch= ahead of the engine answers at once: that watcher saw an
// earlier incarnation of this daemon, whose restart counts from 0 again
// (1 after -restore).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	s.watchRequests.Add(1)
	wr, err := WaitWatch(r, watchCeiling, s.cfg.Engine.WaitEpoch)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if wr.Changed {
		s.watchChanged.Add(1)
	} else {
		s.watchTimeouts.Add(1)
	}
	w.Header().Set(EpochHeader, strconv.FormatInt(wr.Epoch, 10))
	WriteJSON(w, http.StatusOK, wr)
}

// WaitWatch runs one GET /watch long-poll, shared by the daemon (over
// its ingest epoch) and the cluster gateway (over its export
// generation): it parses ?epoch= (default 0) and ?timeout= (a Go
// duration that may shorten ceiling but never extend it), then blocks in
// wait until the epoch differs from ?epoch= or the timeout expires. An
// error means a malformed parameter (answer 400). Handlers also send the
// epoch in X-Sketch-Epoch, so a watcher can chain polls without parsing
// the body.
func WaitWatch(r *http.Request, ceiling time.Duration, wait func(context.Context, int64) int64) (WatchResponse, error) {
	after := int64(0)
	if eq := r.URL.Query().Get("epoch"); eq != "" {
		v, err := strconv.ParseInt(eq, 10, 64)
		if err != nil || v < 0 {
			return WatchResponse{}, fmt.Errorf("server: bad epoch %q", eq)
		}
		after = v
	}
	timeout := ceiling
	if tq := r.URL.Query().Get("timeout"); tq != "" {
		d, err := time.ParseDuration(tq)
		if err != nil || d <= 0 {
			return WatchResponse{}, fmt.Errorf("server: bad timeout %q", tq)
		}
		timeout = min(d, ceiling)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	epoch := wait(ctx, after)
	return WatchResponse{Epoch: epoch, Changed: epoch != after}, nil
}

// handleSketch exports the engine's cached merged snapshot in the
// pkg/sketch versioned envelope — the federation hook: a cluster gateway
// fetches these from every peer, Deserializes, and Merges. The response
// carries the sketch family in the X-Sketch-Kind header and the
// snapshot's ingest epoch in X-Sketch-Epoch. The serialized envelope is
// cached per epoch, so repeated exports of a quiescent engine serialize
// nothing. An empty engine still serializes (an empty sketch merges as a
// no-op); a family with no wire format answers 501.
func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span := s.beginTrace(w, r)
	te := time.Now()
	blob, epoch, err := s.marshaledSnapshot()
	telemetry.Observe(s.tel.export, span, "export", time.Since(te))
	switch {
	case err == nil:
	case errors.Is(err, sketch.ErrNotSerializable):
		WriteError(w, http.StatusNotImplemented, err)
		s.finishRequest(span, s.tel.reqSketch, "/sketch", http.StatusNotImplemented, epoch, t0)
		return
	default:
		WriteError(w, http.StatusInternalServerError, err)
		s.finishRequest(span, s.tel.reqSketch, "/sketch", http.StatusInternalServerError, epoch, t0)
		return
	}
	w.Header().Set(EpochHeader, strconv.FormatInt(epoch, 10))
	WriteSketch(w, blob)
	s.finishRequest(span, s.tel.reqSketch, "/sketch", http.StatusOK, epoch, t0)
}

// AbsorbResponse is the JSON body of a successful POST /sketch.
type AbsorbResponse struct {
	// Kind is the family of the absorbed sketch envelope.
	Kind string `json:"kind"`
	// Epoch is the engine's ingest epoch after the absorb (the absorb
	// itself bumps it, so observers of /watch see the repair land).
	Epoch int64 `json:"epoch"`
}

// handleAbsorb folds a serialized sketch envelope into the live engine —
// the receiving half of cluster read repair (see engine.Absorb). The body
// is the same versioned envelope GET /sketch exports; absorbing is
// idempotent, so retrying a failed delivery is always safe. A malformed
// envelope answers 400; a family that cannot be partitioned or merged,
// or options mismatching the engine's, answers 422 — the daemon is
// healthy, the payload is not absorbable. Absorbs are counted by
// sketch_absorbs and recorded in no latency histogram: the ingest ones
// describe POST /ingest only. The slow-query line still carries the
// absorb's ingest stage.
func (s *Server) handleAbsorb(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span := s.beginTrace(w, r)
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	blob, err := io.ReadAll(body)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		WriteError(w, status, err)
		s.finishRequest(span, nil, "/sketch", status, s.cfg.Engine.Epoch(), t0)
		return
	}
	in, err := sketch.Deserialize(blob)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		s.finishRequest(span, nil, "/sketch", http.StatusBadRequest, s.cfg.Engine.Epoch(), t0)
		return
	}
	ti := time.Now()
	err = s.cfg.Engine.Absorb(in)
	telemetry.Observe(nil, span, "ingest", time.Since(ti))
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		s.finishRequest(span, nil, "/sketch", http.StatusUnprocessableEntity, s.cfg.Engine.Epoch(), t0)
		return
	}
	s.sketchAbsorbs.Add(1)
	kind := ""
	if k, kerr := sketch.KindOf(blob); kerr == nil {
		kind = k.String()
	}
	WriteJSON(w, http.StatusOK, AbsorbResponse{Kind: kind, Epoch: s.cfg.Engine.Epoch()})
	s.finishRequest(span, nil, "/sketch", http.StatusOK, s.cfg.Engine.Epoch(), t0)
}

// marshaledSnapshot returns the serialized merged snapshot and its
// epoch, re-serializing only when the epoch has moved since the last
// export. The cached blob is shared between responses; it is never
// mutated after being built.
func (s *Server) marshaledSnapshot() (blob []byte, epoch int64, err error) {
	s.sketchMu.Lock()
	defer s.sketchMu.Unlock()
	err = s.cfg.Engine.WithSnapshotEpoch(func(sk sketch.Sketch, ep int64) error {
		epoch = ep
		if s.sketchValid && s.sketchEpoch == ep {
			s.sketchCacheHits.Add(1)
			blob = s.sketchBlob
			return nil
		}
		b, serr := sk.Serialize()
		if serr != nil {
			return serr
		}
		s.sketchCacheMisses.Add(1)
		s.sketchBlob, s.sketchEpoch, s.sketchValid = b, ep, true
		blob = b
		return nil
	})
	return blob, epoch, err
}

// WriteSketch writes a serialized sketch blob as the response body, with
// the envelope's family in the X-Sketch-Kind header — the binary framing
// shared by the daemon's and the cluster gateway's /sketch endpoints so
// the export format cannot drift between tiers.
func WriteSketch(w http.ResponseWriter, blob []byte) {
	if kind, err := sketch.KindOf(blob); err == nil {
		w.Header().Set("X-Sketch-Kind", kind.String())
	}
	w.Header().Set("Content-Type", pointio.BinaryContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	_, _ = w.Write(blob)
}

// handleStats renders the declared scalars plus the fields the
// declaration does not hold: the engine counters, build identity, and
// start time. The body decodes into StatsResponse.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := s.stats.JSON()
	resp["engine"] = s.cfg.Engine.Stats()
	resp["version"], resp["commit"] = telemetry.BuildInfo()
	resp["started_at"] = s.start.UTC().Format(time.RFC3339)
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.CheckpointPath == "" {
		WriteError(w, http.StatusNotImplemented,
			fmt.Errorf("server: checkpointing disabled (no checkpoint path configured)"))
		return
	}
	size, points, err := s.cfg.Engine.CheckpointFile(s.cfg.CheckpointPath)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(w, http.StatusOK, CheckpointResponse{
		Path:   s.cfg.CheckpointPath,
		Bytes:  size,
		Points: points,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	version, commit := telemetry.BuildInfo()
	fmt.Fprintf(w, "ok\nbuild %s (%s)\n", version, commit)
}
