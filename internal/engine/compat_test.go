package engine

// Compat-policy suite for engine checkpoints written before the binary
// sketch wire format: testdata/checkpoint_v1.ckpt was produced by the
// gob-era code and holds envelope version 1 sketches (see
// pkg/sketch/testdata for the sibling envelope fixtures). Restoring it
// must fail with core.ErrRetiredFormat, at the original shard count and
// re-sharded, and leave the engine empty.

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// The options checkpoint_v1.ckpt was taken with (2 shards, 3000 points,
// 300 groups). The fixture is immutable.
var v1CheckpointOpts = core.Options{Alpha: 1, Dim: 2, Seed: 77, StreamBound: 1 << 15, Kappa: 64}

// TestRestoreV1Checkpoint refuses the gob-era checkpoint into engines
// with the original and a different shard count, then requires each
// engine to still be empty and to restore a current checkpoint.
func TestRestoreV1Checkpoint(t *testing.T) {
	src, err := NewSamplerEngine(v1CheckpointOpts, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	pts := stream(300, 10, 77)
	src.ProcessBatch(pts)
	want, err := src.Query()
	if err != nil {
		t.Fatal(err)
	}
	current := t.TempDir() + "/current.ckpt"
	if _, _, err := src.CheckpointFile(current); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 3} {
		eng, err := NewSamplerEngine(v1CheckpointOpts, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		err = eng.RestoreFile("testdata/checkpoint_v1.ckpt")
		if !errors.Is(err, core.ErrRetiredFormat) {
			t.Fatalf("shards=%d: restoring v1 checkpoint: error %v, want core.ErrRetiredFormat", shards, err)
		}
		if eng.Enqueued() != 0 || eng.Processed() != 0 || eng.SpaceWords() != 0 {
			t.Fatalf("shards=%d: refused restore left state: enqueued %d processed %d space %d",
				shards, eng.Enqueued(), eng.Processed(), eng.SpaceWords())
		}
		if err := eng.RestoreFile(current); err != nil {
			t.Fatalf("shards=%d: restoring a current checkpoint after the refusal: %v", shards, err)
		}
		res, err := eng.Query()
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != want.Estimate || eng.Enqueued() != int64(len(pts)) {
			t.Fatalf("shards=%d: restored estimate %g over %d points, want %g over %d",
				shards, res.Estimate, eng.Enqueued(), want.Estimate, len(pts))
		}
		eng.Close()
	}
}
