package sketch

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/geom"
)

// The duplicate-blind baselines behind the unified interface. They count
// or sample exact distinct keys — every near-duplicate is a fresh element
// — which is precisely the behavior the robust sketches fix; they are
// here so that experiments can swap sketch families without changing
// call sites. Callers build them in process, so they have no wire
// format: only the α-aware families are served, shipped and
// checkpointed.

// errNoWireFormat is every baseline's Serialize error.
func errNoWireFormat(s Sketch) error {
	return fmt.Errorf("%w: %T is a duplicate-blind baseline with no wire format", ErrNotSerializable, s)
}

// KMV is the k-minimum-values distinct-count estimator.
type KMV struct {
	s *baseline.KMV
}

var _ Mergeable = (*KMV)(nil)

// NewKMV builds a KMV sketch of size k.
func NewKMV(k int, seed uint64) *KMV { return &KMV{s: baseline.NewKMV(k, seed)} }

// Process feeds the next point.
func (k *KMV) Process(p geom.Point) { k.s.Process(p) }

// ProcessBatch feeds a batch of points.
func (k *KMV) ProcessBatch(ps []geom.Point) { k.s.ProcessBatch(ps) }

// Query returns the duplicate-blind distinct-key estimate.
func (k *KMV) Query() (Result, error) { return Result{Estimate: k.s.Estimate()}, nil }

// Space returns the live sketch words.
func (k *KMV) Space() int { return k.s.SpaceWords() }

// Serialize returns ErrNotSerializable: the baselines have no wire format.
func (k *KMV) Serialize() ([]byte, error) { return nil, errNoWireFormat(k) }

// Reset empties the sketch, as NewKMV builds it.
func (k *KMV) Reset() { k.s.Reset() }

// Merge unions another KMV of the same size and seed into k.
func (k *KMV) Merge(other Sketch) error {
	o, ok := other.(*KMV)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *sketch.KMV", ErrIncompatible, other)
	}
	return k.s.Merge(o.s)
}

// FM is the Flajolet–Martin probabilistic counter, averaged over copies.
type FM struct {
	g *baseline.FMGroup
}

var _ Mergeable = (*FM)(nil)

// NewFM builds an FM sketch averaging copies independent counters.
func NewFM(copies int, seed uint64) *FM { return &FM{g: baseline.NewFMGroup(copies, seed)} }

// Process feeds the next point.
func (f *FM) Process(p geom.Point) { f.g.Process(p) }

// ProcessBatch feeds a batch of points.
func (f *FM) ProcessBatch(ps []geom.Point) { f.g.ProcessBatch(ps) }

// Query returns the duplicate-blind distinct-key estimate.
func (f *FM) Query() (Result, error) { return Result{Estimate: f.g.Estimate()}, nil }

// Space returns the live sketch words.
func (f *FM) Space() int { return f.g.SpaceWords() }

// Serialize returns ErrNotSerializable: the baselines have no wire format.
func (f *FM) Serialize() ([]byte, error) { return nil, errNoWireFormat(f) }

// Reset empties the sketch, as NewFM builds it.
func (f *FM) Reset() { f.g.Reset() }

// Merge unions another FM with the same copy count and seed into f.
func (f *FM) Merge(other Sketch) error {
	o, ok := other.(*FM)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *sketch.FM", ErrIncompatible, other)
	}
	return f.g.Merge(o.g)
}

// HyperLogLog is the HLL cardinality estimator.
type HyperLogLog struct {
	h *baseline.HyperLogLog
}

var _ Mergeable = (*HyperLogLog)(nil)

// NewHyperLogLog builds an HLL with 2^b registers, 4 ≤ b ≤ 16.
func NewHyperLogLog(b uint, seed uint64) *HyperLogLog {
	return &HyperLogLog{h: baseline.NewHyperLogLog(b, seed)}
}

// Process feeds the next point.
func (h *HyperLogLog) Process(p geom.Point) { h.h.Process(p) }

// ProcessBatch feeds a batch of points.
func (h *HyperLogLog) ProcessBatch(ps []geom.Point) { h.h.ProcessBatch(ps) }

// Query returns the duplicate-blind distinct-key estimate.
func (h *HyperLogLog) Query() (Result, error) { return Result{Estimate: h.h.Estimate()}, nil }

// Space returns the live sketch words.
func (h *HyperLogLog) Space() int { return h.h.SpaceWords() }

// Serialize returns ErrNotSerializable: the baselines have no wire format.
func (h *HyperLogLog) Serialize() ([]byte, error) { return nil, errNoWireFormat(h) }

// Reset empties the sketch, as NewHyperLogLog builds it.
func (h *HyperLogLog) Reset() { h.h.Reset() }

// Merge unions another HLL with the same register count and seed into h.
func (h *HyperLogLog) Merge(other Sketch) error {
	o, ok := other.(*HyperLogLog)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *sketch.HyperLogLog", ErrIncompatible, other)
	}
	return h.h.Merge(o.h)
}

// LinearCounting is the bitmap distinct-count estimator.
type LinearCounting struct {
	lc *baseline.LinearCounting
}

var _ Mergeable = (*LinearCounting)(nil)

// NewLinearCounting builds a linear counter with an m-bit bitmap.
func NewLinearCounting(m int, seed uint64) *LinearCounting {
	return &LinearCounting{lc: baseline.NewLinearCounting(m, seed)}
}

// Process feeds the next point.
func (l *LinearCounting) Process(p geom.Point) { l.lc.Process(p) }

// ProcessBatch feeds a batch of points.
func (l *LinearCounting) ProcessBatch(ps []geom.Point) { l.lc.ProcessBatch(ps) }

// Query returns the duplicate-blind distinct-key estimate.
func (l *LinearCounting) Query() (Result, error) { return Result{Estimate: l.lc.Estimate()}, nil }

// Space returns the live sketch words.
func (l *LinearCounting) Space() int { return l.lc.SpaceWords() }

// Serialize returns ErrNotSerializable: the baselines have no wire format.
func (l *LinearCounting) Serialize() ([]byte, error) { return nil, errNoWireFormat(l) }

// Reset empties the sketch, as NewLinearCounting builds it.
func (l *LinearCounting) Reset() { l.lc.Reset() }

// Merge unions another linear counter with the same bitmap size and seed.
func (l *LinearCounting) Merge(other Sketch) error {
	o, ok := other.(*LinearCounting)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *sketch.LinearCounting", ErrIncompatible, other)
	}
	return l.lc.Merge(o.lc)
}

// Reservoir is Vitter's uniform stream sample: position-uniform, so
// heavily duplicated groups dominate it — the bias the robust sampler
// removes.
type Reservoir struct {
	r *baseline.Reservoir
}

var _ Sketch = (*Reservoir)(nil)

// NewReservoir builds a reservoir of capacity k.
func NewReservoir(k int, seed uint64) *Reservoir {
	return &Reservoir{r: baseline.NewReservoir(k, seed)}
}

// Process feeds the next item.
func (r *Reservoir) Process(p geom.Point) { r.r.Process(p) }

// ProcessBatch feeds a batch of items in order.
func (r *Reservoir) ProcessBatch(ps []geom.Point) { r.r.ProcessBatch(ps) }

// Query returns one uniform stream item (position-uniform, not
// group-uniform) and no estimate.
func (r *Reservoir) Query() (Result, error) {
	items := r.r.Sample()
	if len(items) == 0 {
		return Result{Estimate: NoEstimate}, fmt.Errorf("sketch: empty reservoir")
	}
	return Result{Sample: items[0], Estimate: NoEstimate}, nil
}

// Space returns the live sketch words.
func (r *Reservoir) Space() int { return r.r.SpaceWords() }

// Serialize returns ErrNotSerializable: the baselines have no wire format.
func (r *Reservoir) Serialize() ([]byte, error) { return nil, errNoWireFormat(r) }
