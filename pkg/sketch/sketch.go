// Package sketch defines the unified streaming-sketch interface of this
// repository and adapters implementing it for every sketch family:
//
//   - L0 — Algorithm 1, the robust ℓ0-sampler (core.Sampler)
//   - WindowL0 — Algorithms 3–5, the sliding-window sampler (core.WindowSampler)
//   - F0 / WindowF0 — the Section 5 robust distinct-count estimators
//   - KMV, FM, HyperLogLog, LinearCounting, Reservoir — the duplicate-blind
//     baselines (internal/baseline), built in process only
//
// Every sketch ingests points one at a time (Process) or in batches
// (ProcessBatch — the fast path used by the sharded engine), answers
// queries with a Result carrying a distinct sample and/or a distinct-count
// estimate, reports its live size in words, and serializes when it has a
// wire format: the α-aware families do, unless built over a sequence
// window or a custom Space; the baselines do not. Sketches whose union is
// well defined additionally implement Mergeable, which is what lets
// internal/engine shard a stream and answer queries from a merged
// snapshot.
package sketch

import (
	"errors"

	"repro/internal/core"
	"repro/internal/geom"
)

// NoEstimate is the Result.Estimate value of sketches that sample but do
// not estimate cardinality (any negative value means "no estimate").
const NoEstimate = -1

// ErrNotSerializable is returned by Serialize on sketches with no wire
// format: the duplicate-blind baselines (built in process, never shipped
// or checkpointed), sequence-window sketches (whose expiry state is keyed
// to one stream's arrival order — see docs/engine.md "Limitations") and
// sketches over custom Spaces. Time-window sketches serialize like every
// other α-aware family. It is core.ErrNotSerializable, so the samplers'
// own refusals match it unchanged.
var ErrNotSerializable = core.ErrNotSerializable

// ErrIncompatible is returned by Merge when the other sketch is of a
// different type or was built with different parameters.
var ErrIncompatible = errors.New("sketch: incompatible sketches")

// Result is a query answer. A sketch fills the fields it supports:
// Sample is nil for estimate-only sketches, and Estimate is negative
// (NoEstimate) for sample-only sketches.
type Result struct {
	// Sample is a robust distinct sample: one point per sampled group,
	// groups equiprobable. Callers must not mutate it.
	Sample geom.Point

	// Estimate approximates the number of distinct groups processed
	// (robust F0 for the α-aware sketches, exact-duplicate F0 for the
	// baselines).
	Estimate float64
}

// Sketch is the unified streaming-sketch interface.
type Sketch interface {
	// Process feeds the next stream point.
	Process(p geom.Point)

	// ProcessBatch feeds a batch of points in stream order. Equivalent to
	// calling Process per point but cheaper: implementations amortize
	// hashing and virtual dispatch across the batch.
	ProcessBatch(ps []geom.Point)

	// Query answers from the current sketch state. The error is non-nil
	// when the sketch has nothing to answer from (empty stream or the
	// algorithm's low-probability failure event).
	Query() (Result, error)

	// Space returns the live sketch size in machine words, following the
	// paper's word-count accounting.
	Space() int

	// Serialize encodes the sketch for checkpointing or shipping, in the
	// self-describing versioned envelope decoded by Deserialize;
	// ErrNotSerializable when the sketch has no wire format.
	Serialize() ([]byte, error)
}

// Mergeable is implemented by sketches whose union is well defined: after
// a.Merge(b), a answers queries as if it had processed both streams. Both
// sketches must have been built with identical parameters and seed (they
// must agree on grids and hash functions); Merge returns ErrIncompatible
// (or a parameter-specific error) otherwise. b is not modified, but a may
// alias the points b stores: the samplers never write a stored point
// again, so both stay valid while either lives.
//
// Reset returns a sketch to the state its constructor built, down to
// the query RNG, while keeping the memory it has grown: a sketch reset
// and then fed (or merged into) equals a fresh one fed the same, in its
// Serialize bytes and its answers. internal/engine rebuilds its cached
// snapshot this way, Reset then Merge of every shard, instead of building
// a fresh sketch per rebuild.
type Mergeable interface {
	Sketch
	Merge(other Sketch) error
	Reset()
}

// Stamped is implemented by sliding-window sketches that accept
// explicitly stamped points — time-based windows, where the stamp is the
// point's timestamp. Stamps may arrive late: the window's right edge is
// the latest stamp seen, and a point already outside it is dropped
// (core.WindowSampler.ProcessAt). Process and ProcessBatch remain valid
// on a Stamped sketch: they stamp each point with the latest timestamp
// seen so far ("arrives now").
type Stamped interface {
	Sketch

	// ProcessAt feeds the next point with an explicit stamp.
	ProcessAt(p geom.Point, stamp int64)

	// ProcessStampedBatch feeds a batch of stamped points in stream order:
	// stamps[i] is the timestamp of ps[i]; len(stamps) must equal len(ps).
	ProcessStampedBatch(ps []geom.Point, stamps []int64)

	// Now returns the latest stamp the sketch has seen — the right edge
	// of its current window.
	Now() int64
}

// Partitionable is implemented by sketches whose stored state can be
// redistributed: Partition splits the sketch into n fresh sketches built
// with the same parameters, routing every stored group by its
// representative point, such that merging the partitions back reproduces
// the original state. internal/engine uses this to restore a checkpoint
// taken with one shard count into an engine with another, re-routing each
// checkpointed entry through the engine's router. The receiver is not
// modified; shard must return values in [0, n).
type Partitionable interface {
	Sketch
	Partition(n int, shard func(p geom.Point) int) ([]Sketch, error)
}
