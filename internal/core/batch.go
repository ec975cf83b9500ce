package core

import (
	"sync"

	"repro/internal/geom"
)

// entryPool recycles entry structs across samplers. Entries churn fast on
// high-rate streams — every rate doubling drops the no-longer-sampled
// groups — and the sharded engine runs many samplers concurrently, so a
// shared pool keeps the allocator out of the hot path.
var entryPool = sync.Pool{New: func() any { return new(entry) }}

// newEntry returns a pooled entry. The caller must overwrite every field
// (entries come back from freeEntry zeroed, but a full struct assignment
// is the convention regardless).
func newEntry() *entry { return entryPool.Get().(*entry) }

// freeEntry returns an entry to the pool. The caller must have removed
// every reference to it (index, entries slice, lastHit cache) first.
func freeEntry(e *entry) {
	*e = entry{}
	entryPool.Put(e)
}

// ProcessBatch feeds a batch of stream points in order. It is equivalent
// to calling Process for each point, but one virtual call per batch plus
// the lastHit duplicate cache make batched ingestion markedly cheaper on
// streams with duplicate locality; the sharded engine feeds samplers
// exclusively through this path.
func (s *Sampler) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		s.Process(p)
	}
}

// ProcessBatch feeds a batch of points to the sliding-window sampler with
// implicit stamps: arrival indices for sequence windows, the latest known
// timestamp for time windows (see Process).
func (ws *WindowSampler) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		ws.ProcessAt(p, ws.nextStamp())
	}
}

// ProcessStampedBatch feeds a batch of explicitly stamped points to the
// sliding-window sampler: stamps[i] is the timestamp of ps[i], which may
// be late (see ProcessAt), and len(stamps) must equal len(ps). This is
// the batched fast path the sharded engine uses for time-based windows.
func (ws *WindowSampler) ProcessStampedBatch(ps []geom.Point, stamps []int64) {
	if len(ps) != len(stamps) {
		panic("core: ProcessStampedBatch: len(ps) != len(stamps)")
	}
	for i, p := range ps {
		ws.ProcessAt(p, stamps[i])
	}
}

// ProcessBatch feeds the batch to every copy, copy-major: each copy scans
// the whole batch before the next copy starts, so a copy's sketch state
// (and its duplicate cache) stays hot for the length of the batch instead
// of being evicted k times per point.
func (ks *KSampler) ProcessBatch(ps []geom.Point) {
	for _, s := range ks.samplers {
		s.ProcessBatch(ps)
	}
}
