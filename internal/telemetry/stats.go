package telemetry

import "sync/atomic"

// Stats is the one declaration of a serving tier's label-free scalars.
// Each entry renders twice from the same value: as a key of the tier's
// GET /stats JSON and as a /metrics family named sketch_<tier>_<key>
// (counters add _total). Declaring a counter once therefore keeps the
// two surfaces in agreement by construction. Declare every entry before
// the tier serves; JSON and the registered families read the values at
// render time, so a declared counter costs one atomic add on the
// request path and nothing else.
type Stats struct {
	prefix  string
	entries []stat
}

// stat is one declared scalar.
type stat struct {
	key   string // /stats JSON key; "" keeps the entry off /stats
	name  string // metric family name
	typ   string
	help  string
	value func() float64 // the /metrics sample
	json  func() any     // the /stats value
}

// NewStats returns an empty declaration for one tier ("daemon",
// "gateway"), which names its families sketch_<tier>_*.
func NewStats(tier string) *Stats {
	return &Stats{prefix: "sketch_" + tier + "_"}
}

// Counter declares a monotonically increasing count under key and
// returns the atomic that owns it. /stats renders it as an integer,
// /metrics as the counter sketch_<tier>_<key>_total.
func (s *Stats) Counter(key, help string) *atomic.Int64 {
	c := new(atomic.Int64)
	s.entries = append(s.entries, stat{
		key: key, name: s.prefix + key + "_total", typ: TypeCounter, help: help,
		value: func() float64 { return float64(c.Load()) },
		json:  func() any { return c.Load() },
	})
	return c
}

// Gauge declares a value read by fn at render time. /stats renders it
// as a number under key, /metrics as the gauge sketch_<tier>_<key>.
func (s *Stats) Gauge(key, help string, fn func() float64) {
	s.entries = append(s.entries, stat{
		key: key, name: s.prefix + key, typ: TypeGauge, help: help,
		value: fn,
		json:  func() any { return fn() },
	})
}

// MetricGauge declares the gauge sketch_<tier>_<name> with no /stats
// key, for a value /stats does not carry as that scalar: a start time,
// or a name /stats spends on something else.
func (s *Stats) MetricGauge(name, help string, fn func() float64) {
	s.entries = append(s.entries, stat{name: s.prefix + name, typ: TypeGauge, help: help, value: fn})
}

// Flag declares a boolean read by fn at render time. /stats renders it
// as a JSON bool under key, /metrics as the gauge sketch_<tier>_<key>
// with value 1 or 0.
func (s *Stats) Flag(key, help string, fn func() bool) {
	s.entries = append(s.entries, stat{
		key: key, name: s.prefix + key, typ: TypeGauge, help: help,
		value: func() float64 {
			if fn() {
				return 1
			}
			return 0
		},
		json: func() any { return fn() },
	})
}

// JSON returns the current value of every keyed entry, by /stats key.
// The tier adds its non-scalar fields (build identity, tables) to the
// map before encoding it.
func (s *Stats) JSON() map[string]any {
	out := make(map[string]any, len(s.entries))
	for _, e := range s.entries {
		if e.key != "" {
			out[e.key] = e.json()
		}
	}
	return out
}

// Register adds every entry to r as a label-free family, in
// declaration order.
func (s *Stats) Register(r *Registry) {
	for _, e := range s.entries {
		r.register(e.name, e.typ, e.help, "", series{value: e.value})
	}
}
