package f0

import (
	"fmt"

	"repro/internal/geom"
)

// ProcessBatch feeds a batch of stream points in order.
func (e *InfiniteEstimator) ProcessBatch(ps []geom.Point) { e.s.ProcessBatch(ps) }

// ProcessBatch feeds the batch to every copy, copy-major, so each copy's
// sketch state stays hot for the length of the batch. The copies share
// one grid: a point's adjacency list is searched by the first copy that
// misses its duplicate fast path on it, and reused by the rest.
func (m *Median) ProcessBatch(ps []geom.Point) {
	m.adj.Reset(len(ps))
	for _, c := range m.copies {
		c.s.ProcessShared(ps, &m.adj)
	}
}

// ProcessBatch feeds the batch to every window-sampler copy, copy-major
// (sequence-based windows; each copy stamps points with its own arrival
// index, which advances identically across copies). Each in-window
// point's adjacency list is searched once for all copies.
func (we *WindowEstimator) ProcessBatch(ps []geom.Point) {
	we.ProcessStampedBatch(ps, nil)
}

// ProcessStampedBatch feeds a batch of explicitly stamped points to every
// window-sampler copy, copy-major: stamps[i] is the timestamp of ps[i]
// (time-based windows; the sharded engine's fast path). With stamps nil
// it is ProcessBatch.
func (we *WindowEstimator) ProcessStampedBatch(ps []geom.Point, stamps []int64) {
	we.adj.Reset(len(ps))
	for _, c := range we.copies {
		c.ProcessShared(ps, stamps, &we.adj)
	}
}

// Merge combines another InfiniteEstimator built with the same options
// into e, producing the estimator of the concatenated stream. This is the
// distributed/sharded setting: estimate F0 of a union of streams from
// per-shard sketches.
func (e *InfiniteEstimator) Merge(o *InfiniteEstimator) error {
	if e.eps != o.eps {
		return fmt.Errorf("f0: merging estimators with different epsilon (%g vs %g)", e.eps, o.eps)
	}
	return e.s.MergeFrom(o.s)
}

// Merge combines another Median built with the same options into m,
// copy by copy. Both estimators must have been constructed with the same
// root seed so that corresponding copies share a grid and hash function;
// core.ErrMergeOptions refuses copies on another grid or hash.
func (m *Median) Merge(o *Median) error {
	if len(m.copies) != len(o.copies) {
		return fmt.Errorf("f0: merging medians with different copy counts (%d vs %d)",
			len(m.copies), len(o.copies))
	}
	for i := range m.copies {
		if err := m.copies[i].Merge(o.copies[i]); err != nil {
			return fmt.Errorf("f0: merging copy %d: %w", i, err)
		}
	}
	return nil
}
