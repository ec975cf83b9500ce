package engine

// Compat-policy suite for engine checkpoints written before the binary
// sketch wire format: testdata/checkpoint_v1.ckpt was produced by the
// gob-era code and holds envelope version 1 sketches (see
// pkg/sketch/testdata for the sibling envelope fixtures). Restoring it
// must fail with core.ErrRetiredFormat, at the original shard count and
// re-sharded, and leave the engine empty. The *_separate_grids.ckpt
// checkpoints hold f0 and windowf0 stacks whose copies each derived
// their own grid, as written before copies shared one; they must fail
// with f0.ErrSeparateGrids and leave the engine empty likewise.
// checkpoint_l0s1.ckpt holds l0 shards in the l0s1 sampler payload,
// which is still read: it must restore.

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/f0"
	"repro/internal/window"
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

// TestRestoreSeparateGridCheckpoint refuses f0 and windowf0 checkpoints
// whose copies sit on separate grids into engines with the original and
// a different shard count, then requires each engine to still be empty
// and to restore a current checkpoint. The fixtures were taken with
// v1CheckpointOpts, 2 shards and ε = 0.5 (f0: 3 copies) or ε = 1
// (windowf0 over a time window of width 400).
func TestRestoreSeparateGridCheckpoint(t *testing.T) {
	win := window.Window{Kind: window.Time, W: 400}
	pts := stream(100, 4, 77)
	stamps := make([]int64, len(pts))
	for i := range stamps {
		stamps[i] = int64(i / 4)
	}
	for _, tc := range []struct {
		file string
		mk   func(shards int) (*Engine, error)
	}{
		{"testdata/checkpoint_f0_separate_grids.ckpt", func(shards int) (*Engine, error) {
			return NewF0Engine(v1CheckpointOpts, 0.5, 3, Config{Shards: shards})
		}},
		{"testdata/checkpoint_windowf0_separate_grids.ckpt", func(shards int) (*Engine, error) {
			return NewWindowF0Engine(v1CheckpointOpts, win, 1, Config{Shards: shards})
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			src, err := tc.mk(2)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if src.Stamped() {
				src.ProcessStampedBatch(pts, stamps)
			} else {
				src.ProcessBatch(pts)
			}
			want, err := src.Query()
			if err != nil {
				t.Fatal(err)
			}
			current := t.TempDir() + "/current.ckpt"
			if _, _, err := src.CheckpointFile(current); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3} {
				eng, err := tc.mk(shards)
				if err != nil {
					t.Fatal(err)
				}
				err = eng.RestoreFile(tc.file)
				if !errors.Is(err, f0.ErrSeparateGrids) {
					t.Fatalf("shards=%d: restoring a separate-grid checkpoint: error %v, want f0.ErrSeparateGrids", shards, err)
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
		})
	}
}

// TestRestoreL0s1Checkpoint restores checkpoint_l0s1.ckpt, written by the
// last build that wrote the l0s1 sampler payload (2 shards,
// v1CheckpointOpts, stream(300, 10, 77)), at the original and at a
// different shard count, and requires the estimate of an engine fed that
// stream. l0s1 is read, no longer written.
func TestRestoreL0s1Checkpoint(t *testing.T) {
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
	for _, shards := range []int{2, 3} {
		eng, err := NewSamplerEngine(v1CheckpointOpts, Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.RestoreFile("testdata/checkpoint_l0s1.ckpt"); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		res, err := eng.Query()
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != want.Estimate || eng.Enqueued() != int64(len(pts)) {
			t.Fatalf("shards=%d: restored estimate %g over %d points, want %g over %d",
				shards, res.Estimate, eng.Enqueued(), want.Estimate, len(pts))
		}
	}
}
