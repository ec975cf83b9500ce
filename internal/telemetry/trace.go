package telemetry

// Request tracing. The gateway mints (or honors) an X-Sketch-Trace ID,
// attaches it to the request context so every outbound peer call —
// routed ingest sub-batches, scatter fetches, /watch polls — carries the
// same header, and echoes it on the response. Handlers collect per-stage
// timings into a pooled Span; when a request crosses the slow-query
// threshold the span is flushed as one structured JSON line, so a slow
// query can be reconstructed end to end from its trace ID alone.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"time"
)

// TraceHeader is the request/response header carrying the trace ID.
const TraceHeader = "X-Sketch-Trace"

// NewTraceID mints a 128-bit random trace ID as 32 hex characters.
func NewTraceID() string {
	return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
}

type traceKey struct{}

// WithTrace returns a context carrying the trace ID for outbound
// propagation. Only call it with a non-empty ID: attaching a value
// allocates, and the untraced path must stay allocation-free.
func WithTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceFrom returns the trace ID attached by WithTrace, or "".
//
//sketch:hotpath
func TraceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// detachedCtx preserves a parent's values while dropping its deadline
// and cancelation, like context.WithoutCancel. The difference is the
// pointer receiver: the standard library's wrapper is a value type, so
// every Value lookup through it re-boxes the struct into an interface —
// one heap allocation per lookup, which TraceFrom would pay on every
// outbound peer request. This wrapper keeps those lookups free.
type detachedCtx struct{ parent context.Context }

// Detach returns ctx stripped of deadline and cancelation but keeping
// its values (trace IDs included) readable without allocating.
//
//sketch:hotpath
func Detach(ctx context.Context) context.Context {
	//sketch:ignore one wrapper cell per refresh round, amortized over every lookup through it
	return &detachedCtx{ctx}
}

func (*detachedCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*detachedCtx) Done() <-chan struct{}       { return nil }
func (*detachedCtx) Err() error                  { return nil }

// Value looks the key up in the parent without re-boxing the wrapper.
//
//sketch:hotpath
func (d *detachedCtx) Value(key any) any { return d.parent.Value(key) }

// maxSpanStages bounds a span's stage array; stages past the cap are
// dropped rather than grown so spans stay pool-recyclable fixed-size
// values.
const maxSpanStages = 12

// Span accumulates one request's per-stage timings for the slow-query
// log. Spans come from a pool and hold fixed-size arrays, so opening one
// on a traced request does not allocate. A Span is used by one request
// goroutine at a time.
type Span struct {
	// Trace is the request's trace ID ("" when only the slow-query log
	// wanted stage timings).
	Trace string
	n     int
	names [maxSpanStages]string
	durs  [maxSpanStages]time.Duration
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

// NewSpan returns a pooled span for one request.
//
//sketch:hotpath
func NewSpan(trace string) *Span {
	s := spanPool.Get().(*Span)
	s.Trace = trace
	s.n = 0
	return s
}

// Release returns the span to the pool. The caller must not touch it
// afterwards.
//
//sketch:hotpath
func (s *Span) Release() {
	spanPool.Put(s)
}

// Add records one named stage duration.
//
//sketch:hotpath
func (s *Span) Add(stage string, d time.Duration) {
	if s.n < maxSpanStages {
		s.names[s.n] = stage
		s.durs[s.n] = d
		s.n++
	}
}

// Sum returns the total of all recorded stage durations.
func (s *Span) Sum() time.Duration {
	var t time.Duration
	for i := 0; i < s.n; i++ {
		t += s.durs[i]
	}
	return t
}

// StagesMS renders the stages as a name → milliseconds map for the
// slow-query log. Repeated stage names accumulate.
func (s *Span) StagesMS() map[string]float64 {
	m := make(map[string]float64, s.n)
	for i := 0; i < s.n; i++ {
		m[s.names[i]] += float64(s.durs[i]) / 1e6
	}
	return m
}

// Observe records a stage duration into a histogram and a span, either
// of which may be nil (metrics disabled, request untraced). This is the
// one instrumentation call handlers sprinkle on the hot path; with both
// receivers nil it does nothing.
//
//sketch:hotpath
func Observe(h *Histogram, s *Span, stage string, d time.Duration) {
	if h != nil {
		h.Record(d)
	}
	if s != nil {
		s.Add(stage, d)
	}
}

// SlowEntry is one slow-query log line. Fields are stable — the schema
// is documented in docs/observability.md and parsed by tests.
type SlowEntry struct {
	// TS is the RFC3339Nano wall-clock time the line was emitted.
	TS string `json:"ts"`
	// Tier is "daemon" or "gateway".
	Tier string `json:"tier"`
	// Path is the request path, e.g. "/query".
	Path string `json:"path"`
	// Trace is the request's trace ID, if any.
	Trace string `json:"trace,omitempty"`
	// Status is the HTTP status written for the request.
	Status int `json:"status"`
	// TotalMS is the handler's wall-clock total in milliseconds.
	TotalMS float64 `json:"total_ms"`
	// Stages maps stage name → milliseconds spent in it.
	Stages map[string]float64 `json:"stages_ms,omitempty"`
	// Epoch is the daemon's ingest epoch at answer time.
	Epoch int64 `json:"epoch,omitempty"`
	// EpochVector is the gateway's per-peer epoch vector at answer time.
	EpochVector []int64 `json:"epoch_vector,omitempty"`
	// StalenessMS is the age of the served fold (gateway only).
	StalenessMS float64 `json:"staleness_ms,omitempty"`
	// Partial marks a gateway answer that tolerated down peers.
	Partial bool `json:"partial,omitempty"`
}

// SlowLog emits SlowEntry lines for requests over a latency threshold.
// A nil *SlowLog and a zero threshold are both valid "disabled" states,
// so handlers can call Maybe unconditionally.
type SlowLog struct {
	threshold time.Duration
	mu        sync.Mutex
	w         io.Writer
}

// NewSlowLog returns a slow-query log writing JSON lines to w (os.Stderr
// when w is nil) for requests slower than threshold. A zero threshold
// disables emission.
func NewSlowLog(threshold time.Duration, w io.Writer) *SlowLog {
	if w == nil {
		w = os.Stderr
	}
	return &SlowLog{threshold: threshold, w: w}
}

// Enabled reports whether any request could be logged; handlers use it
// to decide whether an untraced request still needs a span.
//
//sketch:hotpath
func (l *SlowLog) Enabled() bool {
	return l != nil && l.threshold > 0
}

// Maybe emits e if total crossed the threshold, filling the timestamp,
// trace ID, stage map, and total from the span. The span is only read,
// not released. Costs nothing when the log is disabled or the request
// was fast.
func (l *SlowLog) Maybe(e SlowEntry, s *Span, total time.Duration) {
	if !l.Enabled() || total < l.threshold {
		return
	}
	e.TS = time.Now().UTC().Format(time.RFC3339Nano)
	e.TotalMS = float64(total) / 1e6
	if s != nil {
		e.Trace = s.Trace
		e.Stages = s.StagesMS()
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	l.w.Write(line)
	l.mu.Unlock()
}
