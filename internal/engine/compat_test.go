package engine

// Compat-policy suite for engine checkpoints written before the binary
// sketch wire format: testdata/checkpoint_v1.ckpt was produced by the
// gob-era code and holds envelope version 1 sketches (see
// pkg/sketch/testdata for the sibling envelope fixtures). Restoring it
// must fail with core.ErrRetiredFormat, at the original shard count and
// re-sharded, and leave the engine empty. The *_separate_grids.ckpt
// checkpoints hold f0 and windowf0 stacks whose copies each derived
// their own grid, as written before copies shared one; the windowf0 one
// must fail with f0.ErrSeparateGrids and leave the engine empty likewise.
// checkpoint_l0s1.ckpt holds l0 shards in the retired l0s1 sampler
// payload, and so do the copies of checkpoint_f0_separate_grids.ckpt:
// both must fail with a core.ErrRetiredFormat that names l0s1.

import (
	"errors"
	"strings"
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

// requireRefusedRestore restores file into engines built by mk at 1, 2
// and 3 shards, requires each restore to fail as refused reports, the
// engine to stay empty, and then a checkpoint of src to restore with
// src's point count and estimate.
func requireRefusedRestore(t *testing.T, file string, refused func(error) bool, mk func(shards int) (*Engine, error), src *Engine) {
	t.Helper()
	want, err := src.Query()
	if err != nil {
		t.Fatal(err)
	}
	current := t.TempDir() + "/current.ckpt"
	if _, _, err := src.CheckpointFile(current); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 3} {
		eng, err := mk(shards)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if err := eng.RestoreFile(file); !refused(err) {
			t.Fatalf("shards=%d: restoring %s: unexpected error %v", shards, file, err)
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
		if res.Estimate != want.Estimate || eng.Enqueued() != src.Enqueued() {
			t.Fatalf("shards=%d: restored estimate %g over %d points, want %g over %d",
				shards, res.Estimate, eng.Enqueued(), want.Estimate, src.Enqueued())
		}
	}
}

// refusedL0s1 reports whether err is the compat-policy refusal of the
// l0s1 sampler payload.
func refusedL0s1(err error) bool {
	return errors.Is(err, core.ErrRetiredFormat) && strings.Contains(err.Error(), "l0s1") &&
		strings.Contains(err.Error(), "compat policy") && !strings.Contains(err.Error(), "envelope version 1")
}

// TestRestoreSeparateGridCheckpoint refuses f0 and windowf0 checkpoints
// whose copies sit on separate grids into engines with the original and
// other shard counts: the windowf0 one with f0.ErrSeparateGrids, the f0
// one, whose copies are l0s1, as retired. The fixtures were taken with
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
		file    string
		refused func(error) bool
		mk      func(shards int) (*Engine, error)
	}{
		{"testdata/checkpoint_f0_separate_grids.ckpt", refusedL0s1, func(shards int) (*Engine, error) {
			return NewF0Engine(v1CheckpointOpts, 0.5, 3, Config{Shards: shards})
		}},
		{"testdata/checkpoint_windowf0_separate_grids.ckpt", func(err error) bool { return errors.Is(err, f0.ErrSeparateGrids) },
			func(shards int) (*Engine, error) {
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
			requireRefusedRestore(t, tc.file, tc.refused, tc.mk, src)
		})
	}
}

// TestRestoreL0s1Checkpoint refuses checkpoint_l0s1.ckpt, written by the
// last build that wrote the l0s1 sampler payload (2 shards,
// v1CheckpointOpts, stream(300, 10, 77)), at the original and at other
// shard counts, as TestRestoreSeparateGridCheckpoint refuses its fixtures.
func TestRestoreL0s1Checkpoint(t *testing.T) {
	src, err := NewSamplerEngine(v1CheckpointOpts, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.ProcessBatch(stream(300, 10, 77))
	requireRefusedRestore(t, "testdata/checkpoint_l0s1.ckpt", refusedL0s1, func(shards int) (*Engine, error) {
		return NewSamplerEngine(v1CheckpointOpts, Config{Shards: shards})
	}, src)
}
