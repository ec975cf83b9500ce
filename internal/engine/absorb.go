package engine

// Absorb: fold a foreign sketch into a live engine. This is the receiving
// half of the cluster tier's read repair — a gateway ships a rejoining
// replica the merged slice of cell space it missed while down, serialized
// through the ordinary /sketch envelope, and the daemon folds it into its
// running shards exactly as restoreResharded folds a checkpoint: the
// incoming state is partitioned once through the engine's router so every
// stored group lands on the shard its future traffic will arrive at.

import (
	"fmt"

	"repro/internal/geom"
	"repro/pkg/sketch"
)

// Absorb merges a foreign sketch into the engine's live state without
// pausing ingest. The incoming sketch must have been built with the same
// options and seed as the engine's shards (enforced by the families'
// merge consistency checks) and must implement sketch.Partitionable; the
// engine's shard sketches must be Mergeable. Points already present in
// the shards are unaffected — sketch union is idempotent, so absorbing
// overlapping state is safe and re-absorbing after a partial failure is
// the intended retry. Absorbed entries do not advance the ingest
// counters (Enqueued/Processed count the engine's own stream; /stats of
// a repaired daemon reports absorbs separately), but they do advance the
// ingest epoch so snapshot caches and /watch observers see the change.
func (e *Engine) Absorb(in sketch.Sketch) error {
	p, ok := in.(sketch.Partitionable)
	if !ok {
		return fmt.Errorf("engine: %T cannot be partitioned; absorbing needs sketch.Partitionable", in)
	}
	m := len(e.shards)
	parts, err := p.Partition(m, func(pt geom.Point) int {
		return int(e.cfg.Router.Route(pt) % uint64(m))
	})
	if err != nil {
		return fmt.Errorf("engine: partitioning absorbed sketch: %w", err)
	}
	for j, sh := range e.shards {
		sh.mu.Lock()
		msk, ok := sh.sk.(sketch.Mergeable)
		if !ok {
			sh.mu.Unlock()
			return fmt.Errorf("engine: shard sketch %T is not mergeable; absorbing needs sketch.Mergeable", sh.sk)
		}
		err := msk.Merge(parts[j])
		sh.mu.Unlock()
		if err != nil {
			// Shards before j keep the absorbed state — harmless, since a
			// retry of the same Absorb re-folds idempotently.
			return fmt.Errorf("engine: absorbing into shard %d: %w", j, err)
		}
	}
	e.seedClock(parts)
	e.epoch.Bump()
	return nil
}
