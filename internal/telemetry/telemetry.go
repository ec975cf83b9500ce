// Package telemetry is the dependency-free observability layer shared by
// the daemon (internal/server) and the gateway (internal/cluster): a
// lock-free metrics registry with Prometheus text exposition, the Stats
// declaration both serving tiers render their GET /stats scalars and
// the matching families from, log-linear latency histograms, request
// tracing with per-stage spans, a structured slow-query log, build-info
// stamping, and a pprof handler. Everything on the serving hot path — histogram recording,
// span collection, trace propagation — is allocation-free so
// instrumentation never shows up in the allocs/op benchmarks it exists
// to explain. See docs/observability.md.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Metric type strings as they appear on Prometheus # TYPE lines.
const (
	// TypeCounter marks a monotonically increasing value.
	TypeCounter = "counter"
	// TypeGauge marks a value that can go up and down.
	TypeGauge = "gauge"
	// TypeHistogram marks a cumulative-bucket latency distribution.
	TypeHistogram = "histogram"
)

// series is one labeled time series inside a family: either a read
// callback (counters, gauges) or a histogram.
type series struct {
	labels string // rendered `k="v",...` without braces; may be ""
	value  func() float64
	hist   *Histogram
}

// family groups all series sharing one metric name under a single
// # HELP / # TYPE header, as the exposition format requires.
type family struct {
	name   string
	typ    string
	help   string
	series []series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration takes a lock; reads at scrape time
// call the registered closures, so mirroring an existing atomic counter
// costs one Load per scrape and nothing on the request path. Registry
// is an http.Handler: mount it at GET /metrics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// getFamily returns the family for name, creating it with the given type
// and help on first use. Registering one name with two types is a
// programming error and panics.
func (r *Registry) getFamily(name, typ, help string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, typ: typ, help: help}
		r.families[name] = f
		r.order = append(r.order, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	return f
}

// register adds one series, panicking on a duplicate (name, labels)
// pair — silent duplicates would double-report in every scrape.
func (r *Registry) register(name, typ, help, labels string, s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, typ, help)
	for _, old := range f.series {
		if old.labels == labels {
			panic(fmt.Sprintf("telemetry: duplicate series %s{%s}", name, labels))
		}
	}
	s.labels = labels
	f.series = append(f.series, s)
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time. labels is a rendered label set like `stage="merge"` or "" for
// none. Use it to mirror an existing atomic counter without duplicating
// state.
func (r *Registry) CounterFunc(name, help, labels string, fn func() float64) {
	r.register(name, TypeCounter, help, labels, series{value: fn})
}

// GaugeFunc registers a gauge whose value is read by fn at scrape time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	r.register(name, TypeGauge, help, labels, series{value: fn})
}

// NewHistogram registers and returns a latency histogram series.
// Durations are recorded in nanoseconds and exposed in seconds, per
// Prometheus convention.
func (r *Registry) NewHistogram(name, help, labels string) *Histogram {
	h := &Histogram{}
	r.register(name, TypeHistogram, help, labels, series{hist: h})
	return h
}

// LabelValue escapes s for use inside a label value: backslash, quote,
// and newline get escaped per the exposition format.
func LabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// fnum renders a float the way Prometheus expects: shortest exact form.
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSeries renders `name{labels} value` with brace handling for
// label-free series and an optional extra label (the histogram le pair).
func writeSeries(w io.Writer, name, labels, extra, value string) {
	sep := ""
	if labels != "" && extra != "" {
		sep = ","
	}
	if labels == "" && extra == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s%s%s} %s\n", name, labels, sep, extra, value)
}

// WritePrometheus renders every registered family in text exposition
// format (version 0.0.4): one # HELP / # TYPE header per family, then
// its series. Histograms emit only non-empty buckets plus the mandatory
// +Inf bucket, _sum, and _count; the +Inf bucket always equals _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	r.mu.Unlock()
	var buf strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&buf, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&buf, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			if s.hist == nil {
				writeSeries(&buf, f.name, s.labels, "", fnum(s.value()))
				continue
			}
			var count int64
			s.hist.EachBucket(func(upperNS, cum int64) {
				le := fnum(float64(upperNS) / 1e9)
				writeSeries(&buf, f.name+"_bucket", s.labels, `le="`+le+`"`, strconv.FormatInt(cum, 10))
				count = cum
			})
			writeSeries(&buf, f.name+"_bucket", s.labels, `le="+Inf"`, strconv.FormatInt(count, 10))
			writeSeries(&buf, f.name+"_sum", s.labels, "", fnum(float64(s.hist.Sum())/1e9))
			writeSeries(&buf, f.name+"_count", s.labels, "", strconv.FormatInt(count, 10))
		}
	}
	_, err := io.WriteString(w, buf.String())
	return err
}

// ServeHTTP implements GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

// Snapshot returns every scalar series and histogram summary statistic
// as a flat map keyed `name{labels}` (histograms contribute _sum and
// _count entries). Tests and in-process consumers use it to assert on
// metric values without parsing exposition text.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	fams := make([]*family, len(r.order))
	copy(fams, r.order)
	r.mu.Unlock()
	out := make(map[string]float64)
	key := func(name, labels string) string {
		if labels == "" {
			return name
		}
		return name + "{" + labels + "}"
	}
	for _, f := range fams {
		for _, s := range f.series {
			if s.hist == nil {
				out[key(f.name, s.labels)] = s.value()
				continue
			}
			out[key(f.name+"_sum", s.labels)] = float64(s.hist.Sum()) / 1e9
			out[key(f.name+"_count", s.labels)] = float64(s.hist.Count())
		}
	}
	return out
}

// Families returns the registered family names in sorted order; CI and
// tests use it to assert the core families exist.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.order))
	for _, f := range r.order {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}

// PprofHandler returns the standard net/http/pprof mux (index, cmdline,
// profile, symbol, trace) for serving on a dedicated -pprof listener,
// keeping profiling off the public serving port.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
