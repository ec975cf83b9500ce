package sketch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/window"
)

// L0 is the robust ℓ0-sampler (Algorithm 1) behind the unified interface.
// Query returns both a uniform group sample and the coarse |Sacc|·R
// distinct-group estimate; for a calibrated (1±ε) estimate use F0.
type L0 struct {
	s *core.Sampler
}

var _ Mergeable = (*L0)(nil)

// NewL0 builds an infinite-window robust ℓ0-sampler sketch.
func NewL0(opts core.Options) (*L0, error) {
	s, err := core.NewSampler(opts)
	if err != nil {
		return nil, err
	}
	return &L0{s: s}, nil
}

// Sampler exposes the underlying core.Sampler for callers needing the
// full Algorithm 1 surface (QueryK, diagnostics).
func (l *L0) Sampler() *core.Sampler { return l.s }

// Process feeds the next stream point.
func (l *L0) Process(p geom.Point) { l.s.Process(p) }

// ProcessBatch feeds a batch of points in stream order.
func (l *L0) ProcessBatch(ps []geom.Point) { l.s.ProcessBatch(ps) }

// Query returns a uniform robust ℓ0-sample and the |Sacc|·R group-count
// estimate.
func (l *L0) Query() (Result, error) {
	p, err := l.s.Query()
	if err != nil {
		return Result{Estimate: NoEstimate}, err
	}
	return Result{
		Sample:   p,
		Estimate: float64(l.s.AcceptSize()) * float64(l.s.R()),
	}, nil
}

// QueryK returns min(k, |Sacc|) samples without replacement (construct
// with Options.K = k so that |Sacc| ≥ k with high probability).
func (l *L0) QueryK(k int) ([]geom.Point, error) { return l.s.QueryK(k) }

// Space returns the live sketch words.
func (l *L0) Space() int { return l.s.SpaceWords() }

// Serialize encodes the sketch in the versioned envelope format; restore
// with Deserialize. Sketches built over a custom Space return
// ErrNotSerializable.
func (l *L0) Serialize() ([]byte, error) {
	payload, err := l.s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return encodeEnvelope(KindL0, payload), nil
}

// Merge unions another L0 built with identical Options into l in place;
// the other sketch is left intact. This is the distributed/sharded
// setting: sketch shards independently, merge, query the union.
func (l *L0) Merge(other Sketch) error {
	o, ok := other.(*L0)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *sketch.L0", ErrIncompatible, other)
	}
	return l.s.MergeFrom(o.s)
}

// Reset restores the state NewL0 builds, keeping the sampler's memory
// (see Mergeable).
func (l *L0) Reset() { l.s.Reset() }

// Partition splits the sketch into n fresh L0 sketches, routing every
// stored group by its representative (see Partitionable).
func (l *L0) Partition(n int, shard func(p geom.Point) int) ([]Sketch, error) {
	parts, err := l.s.Partition(n, shard)
	if err != nil {
		return nil, err
	}
	out := make([]Sketch, n)
	for i, p := range parts {
		out[i] = &L0{s: p}
	}
	return out, nil
}

// WindowL0 is the hierarchical sliding-window robust ℓ0-sampler
// (Algorithms 3–5) behind the unified interface. Process stamps points
// with their arrival index (sequence windows) or the latest known
// timestamp (time windows); use ProcessAt/ProcessStampedBatch for
// explicitly stamped time-window ingestion. Time-window sketches are
// Mergeable and serializable — what lets the sharded engine and the
// cluster tier serve them; sequence windows are not (arrival indices do
// not compose across streams).
type WindowL0 struct {
	ws *core.WindowSampler
}

var (
	_ Mergeable = (*WindowL0)(nil)
	_ Stamped   = (*WindowL0)(nil)
)

// NewWindowL0 builds a sliding-window robust ℓ0-sampler sketch.
func NewWindowL0(opts core.Options, win window.Window) (*WindowL0, error) {
	ws, err := core.NewWindowSampler(opts, win)
	if err != nil {
		return nil, err
	}
	return &WindowL0{ws: ws}, nil
}

// WindowSampler exposes the underlying core.WindowSampler.
func (w *WindowL0) WindowSampler() *core.WindowSampler { return w.ws }

// Process feeds the next point of a sequence-based window.
func (w *WindowL0) Process(p geom.Point) { w.ws.Process(p) }

// ProcessAt feeds the next point with an explicit stamp (time-based
// windows). Stamps may arrive late (see Stamped).
func (w *WindowL0) ProcessAt(p geom.Point, stamp int64) { w.ws.ProcessAt(p, stamp) }

// ProcessStampedBatch feeds a batch of explicitly stamped points in
// stream order (time-based windows): stamps[i] is the timestamp of ps[i].
func (w *WindowL0) ProcessStampedBatch(ps []geom.Point, stamps []int64) {
	w.ws.ProcessStampedBatch(ps, stamps)
}

// ProcessBatch feeds a batch of points in stream order.
func (w *WindowL0) ProcessBatch(ps []geom.Point) { w.ws.ProcessBatch(ps) }

// Now returns the latest stamp seen — the window's right edge.
func (w *WindowL0) Now() int64 { return w.ws.Now() }

// Query returns a uniform robust ℓ0-sample of the groups with a point in
// the current window. Window sketches carry no calibrated estimate; use
// WindowF0 for counting.
func (w *WindowL0) Query() (Result, error) {
	p, err := w.ws.Query()
	if err != nil {
		return Result{Estimate: NoEstimate}, err
	}
	return Result{Sample: p, Estimate: NoEstimate}, nil
}

// Space returns the live sketch words summed over levels.
func (w *WindowL0) Space() int { return w.ws.SpaceWords() }

// Serialize encodes the window sketch — expiry stamps, level structure,
// clock, and seed-derived randomness — in the versioned envelope format;
// restore with Deserialize. Sequence windows and sketches over a custom
// Space return ErrNotSerializable.
func (w *WindowL0) Serialize() ([]byte, error) {
	payload, err := w.ws.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return encodeEnvelope(KindWindowL0, payload), nil
}

// Merge unions another WindowL0 built with identical Options and the same
// time-based Window into w in place; the other sketch is left intact and
// the merged window's right edge is the later of the two clocks. Sequence
// windows return core.ErrWindowMerge: their arrival indices do not
// compose (see docs/engine.md "Limitations").
func (w *WindowL0) Merge(other Sketch) error {
	o, ok := other.(*WindowL0)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *sketch.WindowL0", ErrIncompatible, other)
	}
	return w.ws.MergeFrom(o.ws)
}

// Reset restores the state NewWindowL0 builds, keeping the sampler's
// memory (see Mergeable).
func (w *WindowL0) Reset() { w.ws.Reset() }

// Partition splits the window sketch into n fresh WindowL0 sketches,
// routing every stored group by its representative (time-based windows
// only; see Partitionable).
func (w *WindowL0) Partition(n int, shard func(p geom.Point) int) ([]Sketch, error) {
	parts, err := w.ws.Partition(n, shard)
	if err != nil {
		return nil, err
	}
	out := make([]Sketch, n)
	for i, p := range parts {
		out[i] = &WindowL0{ws: p}
	}
	return out, nil
}
