package sketch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/f0"
	"repro/internal/geom"
	"repro/internal/window"
)

// F0 is the Section 5 robust distinct-count estimator behind the unified
// interface: points within Alpha of each other count as one element. It
// median-boosts over independent copies; Query returns the estimate only.
type F0 struct {
	m *f0.Median
}

var _ Mergeable = (*F0)(nil)

// NewF0 builds a robust F0 estimator with target accuracy (1±eps),
// median-boosted over copies independent copies (minimum 1).
func NewF0(opts core.Options, eps float64, copies int) (*F0, error) {
	m, err := f0.NewMedian(opts, eps, 0, copies)
	if err != nil {
		return nil, err
	}
	return &F0{m: m}, nil
}

// Median exposes the underlying estimator stack.
func (e *F0) Median() *f0.Median { return e.m }

// Process feeds the next stream point to every copy.
func (e *F0) Process(p geom.Point) { e.m.Process(p) }

// ProcessBatch feeds a batch of points, copy-major.
func (e *F0) ProcessBatch(ps []geom.Point) { e.m.ProcessBatch(ps) }

// Query returns the median robust F0 estimate.
func (e *F0) Query() (Result, error) {
	est, err := e.m.Estimate()
	if err != nil {
		return Result{Estimate: NoEstimate}, err
	}
	return Result{Estimate: est}, nil
}

// Space returns the live sketch words summed over copies.
func (e *F0) Space() int { return e.m.SpaceWords() }

// Serialize encodes every copy in the versioned envelope format; restore
// with Deserialize. Estimators over a custom Space return
// ErrNotSerializable.
func (e *F0) Serialize() ([]byte, error) {
	payload, err := e.m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return encodeEnvelope(KindF0, payload), nil
}

// Merge unions another F0 built with identical options into e, copy by
// copy; the other sketch is left intact.
func (e *F0) Merge(other Sketch) error {
	o, ok := other.(*F0)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *sketch.F0", ErrIncompatible, other)
	}
	return e.m.Merge(o.m)
}

// Reset restores the state NewF0 builds, keeping every copy's memory
// (see Mergeable).
func (e *F0) Reset() { e.m.Reset() }

// Partition splits the estimator into n fresh F0 sketches, copy by copy
// (see Partitionable).
func (e *F0) Partition(n int, shard func(p geom.Point) int) ([]Sketch, error) {
	parts, err := e.m.Partition(n, shard)
	if err != nil {
		return nil, err
	}
	out := make([]Sketch, n)
	for i, p := range parts {
		out[i] = &F0{m: p}
	}
	return out, nil
}

// WindowF0 is the sliding-window robust distinct-count estimator behind
// the unified interface. Time-window estimators are Mergeable and
// serializable; sequence windows are not (see WindowL0).
type WindowF0 struct {
	we *f0.WindowEstimator
}

var (
	_ Mergeable = (*WindowF0)(nil)
	_ Stamped   = (*WindowF0)(nil)
)

// NewWindowF0 builds a sliding-window robust F0 estimator with target
// accuracy (1±eps).
func NewWindowF0(opts core.Options, win window.Window, eps float64) (*WindowF0, error) {
	we, err := f0.NewWindowEstimator(opts, win, eps, 0)
	if err != nil {
		return nil, err
	}
	return &WindowF0{we: we}, nil
}

// Estimator exposes the underlying window estimator (e.g. for ProcessAt
// with explicit stamps).
func (e *WindowF0) Estimator() *f0.WindowEstimator { return e.we }

// Process feeds the next point (sequence-based windows).
func (e *WindowF0) Process(p geom.Point) { e.we.Process(p) }

// ProcessAt feeds the next point with an explicit stamp (time-based
// windows).
func (e *WindowF0) ProcessAt(p geom.Point, stamp int64) { e.we.ProcessAt(p, stamp) }

// ProcessStampedBatch feeds a batch of explicitly stamped points,
// copy-major (time-based windows): stamps[i] is the timestamp of ps[i].
func (e *WindowF0) ProcessStampedBatch(ps []geom.Point, stamps []int64) {
	e.we.ProcessStampedBatch(ps, stamps)
}

// ProcessBatch feeds a batch of points, copy-major.
func (e *WindowF0) ProcessBatch(ps []geom.Point) { e.we.ProcessBatch(ps) }

// Now returns the latest stamp seen — the window's right edge.
func (e *WindowF0) Now() int64 { return e.we.Now() }

// Query returns the estimated number of distinct groups with a point in
// the current window.
func (e *WindowF0) Query() (Result, error) {
	est, err := e.we.Estimate()
	if err != nil {
		return Result{Estimate: NoEstimate}, err
	}
	return Result{Estimate: est}, nil
}

// Space returns the live sketch words summed over copies.
func (e *WindowF0) Space() int { return e.we.SpaceWords() }

// Serialize encodes every window-sampler copy in the versioned envelope
// format; restore with Deserialize. Sequence windows and estimators over
// a custom Space return ErrNotSerializable.
func (e *WindowF0) Serialize() ([]byte, error) {
	payload, err := e.we.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return encodeEnvelope(KindWindowF0, payload), nil
}

// Merge unions another WindowF0 built with identical options, window, and
// seed into e, copy by copy; the other sketch is left intact. Sequence
// windows return core.ErrWindowMerge (see WindowL0.Merge).
func (e *WindowF0) Merge(other Sketch) error {
	o, ok := other.(*WindowF0)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *sketch.WindowF0", ErrIncompatible, other)
	}
	return e.we.Merge(o.we)
}

// Reset restores the state NewWindowF0 builds, keeping every copy's
// memory (see Mergeable).
func (e *WindowF0) Reset() { e.we.Reset() }

// Partition splits the window estimator into n fresh WindowF0 sketches,
// copy by copy (time-based windows only; see Partitionable).
func (e *WindowF0) Partition(n int, shard func(p geom.Point) int) ([]Sketch, error) {
	parts, err := e.we.Partition(n, shard)
	if err != nil {
		return nil, err
	}
	out := make([]Sketch, n)
	for i, p := range parts {
		out[i] = &WindowF0{we: p}
	}
	return out, nil
}
