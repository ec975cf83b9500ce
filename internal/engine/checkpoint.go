package engine

// Engine-level checkpoint/restore. A checkpoint drains the engine and
// serializes every shard's sketch through the pkg/sketch versioned
// envelope, together with the ingest counters, into a single versioned
// stream. Restoring requires an engine built with the same sketch options
// and seed — the grid router is derived deterministically from those.
// With the same shard count, shard i's checkpointed sketch is exactly the
// sketch shard i's future traffic belongs to; with a different shard
// count, every checkpointed entry is re-routed through the router onto
// its new home shard (sketch.Partitionable). The file format is
// documented in docs/server.md.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/geom"
	"repro/pkg/sketch"
)

// checkpointMagic and checkpointVersion head every checkpoint stream, so
// foreign files fail fast with a clear error. Bump the version on any
// incompatible change to checkpointState or the sketch envelope.
var checkpointMagic = [8]byte{'l', '0', 'c', 'k', 'p', 't', 0, 1}

// checkpointState is the gob wire form of an engine checkpoint.
type checkpointState struct {
	Shards   int      // shard count the checkpoint was taken with
	Enqueued int64    // points handed to the engine
	PerShard []int64  // per-shard processed counts
	Sketches [][]byte // per-shard sketch blobs (pkg/sketch envelope)
}

// Checkpoint drains the engine and writes its full state — every shard's
// sketch plus the ingest counters — to w, returning the point count the
// checkpoint records. The engine keeps serving during and after the
// write; the checkpoint captures the drained state at the moment each
// shard is visited. Fails with the underlying sketch error if the
// configured sketches are not serializable.
func (e *Engine) Checkpoint(w io.Writer) (points int64, err error) {
	e.Drain()
	st := checkpointState{
		Shards:   len(e.shards),
		PerShard: make([]int64, len(e.shards)),
		Sketches: make([][]byte, len(e.shards)),
	}
	for i, sh := range e.shards {
		// The per-shard counter is read under the same lock as the
		// serialization, so blob and counter agree even while concurrent
		// ingest keeps the workers busy.
		sh.mu.Lock()
		blob, err := sh.sk.Serialize()
		done := sh.done.Load()
		sh.mu.Unlock()
		if err != nil {
			return 0, fmt.Errorf("engine: checkpointing shard %d: %w", i, err)
		}
		st.PerShard[i] = done
		st.Sketches[i] = blob
	}
	// Enqueued is recorded as the sum of the captured counters — exactly
	// the points the serialized sketches contain — rather than the live
	// atomic, which concurrent producers may already have moved past.
	for _, n := range st.PerShard {
		st.Enqueued += n
	}
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return 0, fmt.Errorf("engine: writing checkpoint header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return 0, fmt.Errorf("engine: writing checkpoint: %w", err)
	}
	return st.Enqueued, nil
}

// CheckpointFile writes a checkpoint atomically: to a temporary file in
// path's directory, synced, then renamed over path, so a crash mid-write
// never corrupts the previous checkpoint. It returns the written size in
// bytes and the point count the checkpoint records.
func (e *Engine) CheckpointFile(path string) (size, points int64, err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, 0, fmt.Errorf("engine: creating checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	points, err = e.Checkpoint(tmp)
	if err != nil {
		tmp.Close()
		return 0, 0, err
	}
	size, err = tmp.Seek(0, io.SeekCurrent)
	if err != nil {
		tmp.Close()
		return 0, 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, 0, fmt.Errorf("engine: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, 0, fmt.Errorf("engine: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, 0, fmt.Errorf("engine: publishing checkpoint: %w", err)
	}
	return size, points, nil
}

// Restore replaces the engine's state with a checkpoint previously
// written by Checkpoint. The engine must have been built with the same
// sketch family, options and seed as the checkpointed one, and must not
// have ingested any points yet. Emptiness is enforced by counter;
// matching options by folding the decoded shard sketches into a fresh
// accumulator — the fold a snapshot query runs — before anything is
// installed, so a mismatched checkpoint fails with the merge error
// (core.ErrMergeOptions, or sketch.ErrIncompatible across families) and
// leaves the engine empty. At the checkpoint's shard count that fold
// becomes the cached snapshot, so the first query does not repeat it.
// The shard count may differ: a checkpoint from
// an N-shard engine loads into an M-shard engine by re-routing every
// checkpointed entry through the engine's router (see restoreResharded),
// with identical query results.
func (e *Engine) Restore(r io.Reader) error {
	if e.enqueued.Load() != 0 {
		return fmt.Errorf("engine: Restore into an engine that has already ingested points")
	}
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("engine: reading checkpoint header: %w", err)
	}
	if !bytes.Equal(magic[:6], checkpointMagic[:6]) {
		return fmt.Errorf("engine: not a checkpoint file (bad magic)")
	}
	if magic[6] != checkpointMagic[6] || magic[7] != checkpointMagic[7] {
		return fmt.Errorf("engine: unsupported checkpoint version %d.%d", magic[6], magic[7])
	}
	var st checkpointState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("engine: reading checkpoint: %w", err)
	}
	if len(st.Sketches) != st.Shards || len(st.PerShard) != st.Shards {
		return fmt.Errorf("engine: corrupt checkpoint: %d blobs / %d counters for %d shards",
			len(st.Sketches), len(st.PerShard), st.Shards)
	}
	acc, err := e.newAccumulator()
	if err != nil {
		return err
	}
	restored := make([]sketch.Sketch, st.Shards)
	for i, blob := range st.Sketches {
		s, err := sketch.Deserialize(blob)
		if err != nil {
			return fmt.Errorf("engine: restoring shard %d: %w", i, err)
		}
		if err := acc.Merge(s); err != nil {
			return fmt.Errorf("engine: folding checkpoint shard %d: %w", i, err)
		}
		restored[i] = s
	}
	if st.Shards != len(e.shards) {
		return e.restoreResharded(st, acc)
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		sh.sk = restored[i]
		sh.mu.Unlock()
		sh.done.Store(st.PerShard[i])
	}
	e.seedClock(restored)
	e.enqueued.Store(st.Enqueued)
	e.epoch.Bump()
	// acc is the fold a snapshot of the installed shards would run, so it
	// becomes the cached snapshot and the first query does not repeat it.
	e.snapMu.Lock()
	e.snap, e.snapEpoch = acc, e.epoch.Load()
	e.snapMu.Unlock()
	return nil
}

// seedClock advances the engine-global clock of a time-windowed engine
// to the latest stamp across the restored shard sketches, so unstamped
// ingest after a restore keeps arriving "now" instead of at stamp 0.
func (e *Engine) seedClock(restored []sketch.Sketch) {
	if !e.stamped {
		return
	}
	for _, sk := range restored {
		if st, ok := sk.(sketch.Stamped); ok {
			if now := st.Now(); now > e.lastStamp.Load() {
				e.lastStamp.Store(now)
			}
		}
	}
}

// restoreResharded loads a checkpoint taken with a different shard count.
// acc is Restore's fold of the checkpointed sketches — exactly the fold a
// snapshot query of the checkpointed engine would have produced — and is
// partitioned once through the engine's router: every stored group lands
// on the shard its representative's routing-cell hash selects, exactly
// where that group's future traffic will arrive. Because the partitions
// are disjoint and level-preserving, re-folding them at query time
// reconstructs the merged sketch verbatim, so the restored engine answers
// identically to a same-shard-count restore. Requires the checkpointed family to implement
// sketch.Partitionable and sketch.Mergeable (the l0/f0 families and their
// time-window variants all do). The per-shard processed counters cannot
// be re-derived from the blobs, so the checkpointed total is spread
// evenly across shards; Enqueued stays exact.
func (e *Engine) restoreResharded(st checkpointState, acc sketch.Mergeable) error {
	m := len(e.shards)
	route := func(p geom.Point) int {
		return int(e.cfg.Router.Route(p) % uint64(m))
	}
	p, ok := acc.(sketch.Partitionable)
	if !ok {
		return fmt.Errorf("engine: checkpoint has %d shards, engine has %d, and %T cannot be re-sharded (rebuild the engine with -shards %d)",
			st.Shards, m, acc, st.Shards)
	}
	targets, err := p.Partition(m, route)
	if err != nil {
		return fmt.Errorf("engine: re-sharding checkpoint: %w", err)
	}
	var total int64
	for _, n := range st.PerShard {
		total += n
	}
	for j, sh := range e.shards {
		per := total / int64(m)
		if int64(j) < total%int64(m) {
			per++
		}
		sh.mu.Lock()
		sh.sk = targets[j]
		sh.mu.Unlock()
		sh.done.Store(per)
	}
	e.seedClock(targets)
	e.enqueued.Store(st.Enqueued)
	e.epoch.Bump() // invalidate any cached snapshot
	return nil
}

// RestoreFile restores the engine from a checkpoint file written by
// CheckpointFile.
func (e *Engine) RestoreFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("engine: opening checkpoint: %w", err)
	}
	defer f.Close()
	return e.Restore(f)
}
