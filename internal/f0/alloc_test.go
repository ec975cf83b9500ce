package f0

import (
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/window"
)

// TestMedianWarmBatchAllocs: once a batch's groups are stored, feeding
// the batch again allocates nothing. The copies' shared adjacency buffer
// keeps its size from the first pass.
func TestMedianWarmBatchAllocs(t *testing.T) {
	m, err := NewMedian(core.Options{Alpha: 1, Dim: 2, Seed: 31}, 0.25, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	batch := groupStream(rand.New(rand.NewPCG(8, 8)), 400, 3)
	m.ProcessBatch(batch)
	allocs := testing.AllocsPerRun(20, func() { m.ProcessBatch(batch) })
	if allocs != 0 {
		t.Errorf("warm Median.ProcessBatch of %d points: %v allocs/op, want 0", len(batch), allocs)
	}
}

// TestWindowEstimatorWarmBatchAllocs: a stamped batch that only
// refreshes groups the window estimator already stores allocates
// nothing.
func TestWindowEstimatorWarmBatchAllocs(t *testing.T) {
	we, err := NewWindowEstimator(core.Options{Alpha: 1, Dim: 2, Seed: 33}, window.Window{Kind: window.Time, W: 1 << 20}, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	batch := make([]geom.Point, 512)
	stamps := make([]int64, len(batch))
	for i := range batch {
		g := rng.IntN(64)
		batch[i] = geom.Point{float64(g) * 10, rng.Float64() * 0.3}
		stamps[i] = int64(i)
	}
	we.ProcessStampedBatch(batch, stamps)
	allocs := testing.AllocsPerRun(20, func() { we.ProcessStampedBatch(batch, stamps) })
	if allocs != 0 {
		t.Errorf("warm WindowEstimator.ProcessStampedBatch of %d points: %v allocs/op, want 0", len(batch), allocs)
	}
}
