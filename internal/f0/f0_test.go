package f0

import (
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hash"
	"repro/internal/metrics"
	"repro/internal/window"
)

// groupStream emits points of n well-separated groups with random
// near-duplicate multiplicities, shuffled.
func groupStream(rng *rand.Rand, n, maxDup int) []geom.Point {
	var pts []geom.Point
	for g := 0; g < n; g++ {
		base := geom.Point{float64(g) * 10, rng.Float64()}
		dups := 1 + rng.IntN(maxDup)
		for k := 0; k < dups; k++ {
			pts = append(pts, geom.Point{base[0] + (rng.Float64()-0.5)*0.4, base[1] + (rng.Float64()-0.5)*0.4})
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

func TestInfiniteEstimatorValidation(t *testing.T) {
	o := core.Options{Alpha: 1, Dim: 2}
	if _, err := NewInfiniteEstimator(o, 0, 0); err == nil {
		t.Error("expected error for eps=0")
	}
	if _, err := NewInfiniteEstimator(o, 2, 0); err == nil {
		t.Error("expected error for eps>1")
	}
	if _, err := NewInfiniteEstimator(o, 0.5, -1); err == nil {
		t.Error("expected error for negative kappaB")
	}
	if _, err := NewInfiniteEstimator(core.Options{Alpha: 0, Dim: 2}, 0.5, 0); err == nil {
		t.Error("expected error for bad core options")
	}
}

func TestInfiniteEstimatorEmpty(t *testing.T) {
	e, _ := NewInfiniteEstimator(core.Options{Alpha: 1, Dim: 2}, 0.5, 0)
	if _, err := e.Estimate(); err != ErrNoEstimate {
		t.Fatalf("empty estimate error = %v", err)
	}
}

func TestInfiniteEstimatorExactWhenSmall(t *testing.T) {
	// With few groups nothing subsamples (R stays 1): estimate is exact.
	rng := rand.New(rand.NewPCG(1, 1))
	pts := groupStream(rng, 12, 20)
	e, _ := NewInfiniteEstimator(core.Options{Alpha: 1, Dim: 2, Seed: 3}, 0.3, 0)
	for _, p := range pts {
		e.Process(p)
	}
	got, err := e.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if got != 12 {
		t.Fatalf("estimate = %g, want exactly 12 (no subsampling yet)", got)
	}
}

func TestInfiniteEstimatorAccuracy(t *testing.T) {
	// 600 groups with ε=0.25: median of 9 copies should land well within
	// 25% of the truth (duplicates must not inflate the count).
	rng := rand.New(rand.NewPCG(2, 2))
	pts := groupStream(rng, 600, 5)
	m, err := NewMedian(core.Options{Alpha: 1, Dim: 2, Seed: 5}, 0.25, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		m.Process(p)
	}
	got, err := m.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if rel := metrics.RelErr(got, 600); rel > 0.25 {
		t.Fatalf("median estimate %g for 600 groups (rel err %.3f)", got, rel)
	}
}

func TestInfiniteEstimatorDuplicateInsensitive(t *testing.T) {
	// The same 200 groups with 1 vs 30 duplicates each must give similar
	// estimates (same seed → same hash → same sampled cells).
	mk := func(maxDup int) float64 {
		rng := rand.New(rand.NewPCG(3, 3))
		pts := groupStream(rng, 200, maxDup)
		e, _ := NewInfiniteEstimator(core.Options{Alpha: 1, Dim: 2, Seed: 7}, 0.3, 0)
		for _, p := range pts {
			e.Process(p)
		}
		got, err := e.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	lean, fat := mk(1), mk(30)
	if metrics.RelErr(fat, lean) > 0.3 {
		t.Fatalf("duplicates changed the estimate: %g vs %g", lean, fat)
	}
}

func TestMedianRobustness(t *testing.T) {
	// Median over many copies concentrates: run 20 trials, all within 35%.
	sm := hash.NewSplitMix(9)
	rng := rand.New(rand.NewPCG(4, 4))
	pts := groupStream(rng, 300, 8)
	for trial := 0; trial < 20; trial++ {
		m, _ := NewMedian(core.Options{Alpha: 1, Dim: 2, Seed: sm.Next()}, 0.3, 0, 7)
		for _, p := range pts {
			m.Process(p)
		}
		got, err := m.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if rel := metrics.RelErr(got, 300); rel > 0.35 {
			t.Fatalf("trial %d: estimate %g (rel %.3f)", trial, got, rel)
		}
	}
}

func TestMedianSpace(t *testing.T) {
	m, _ := NewMedian(core.Options{Alpha: 1, Dim: 2, Seed: 1}, 0.5, 0, 3)
	rng := rand.New(rand.NewPCG(5, 5))
	for _, p := range groupStream(rng, 50, 3) {
		m.Process(p)
	}
	if m.SpaceWords() <= 0 {
		t.Fatal("space must be positive")
	}
}

func TestWindowEstimatorValidation(t *testing.T) {
	o := core.Options{Alpha: 1, Dim: 2}
	w := window.Window{Kind: window.Sequence, W: 64}
	if _, err := NewWindowEstimator(o, w, 0, 0); err == nil {
		t.Error("expected error for eps=0")
	}
	if _, err := NewWindowEstimator(o, w, 0.5, -1); err == nil {
		t.Error("expected error for negative kappa")
	}
	if _, err := NewWindowEstimator(o, window.Window{W: 0}, 0.5, 0); err == nil {
		t.Error("expected error for bad window")
	}
	we, err := NewWindowEstimator(o, w, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if we.Copies() != 8 { // ⌈2/0.25⌉
		t.Fatalf("Copies = %d, want 8", we.Copies())
	}
}

func TestWindowEstimatorEmpty(t *testing.T) {
	we, _ := NewWindowEstimator(core.Options{Alpha: 1, Dim: 2},
		window.Window{Kind: window.Sequence, W: 16}, 0.5, 0)
	if _, err := we.Estimate(); err != ErrNoEstimate {
		t.Fatalf("empty estimate error = %v", err)
	}
}

func TestWindowEstimatorTracksWindowCardinality(t *testing.T) {
	// Stream has 256 groups overall but only ~32 distinct groups inside
	// any window of 64 points; the estimate must track the window count
	// within a factor ~3 (the FM-style level estimator is coarse).
	rng := rand.New(rand.NewPCG(6, 6))
	we, err := NewWindowEstimator(core.Options{Alpha: 1, Dim: 2, Seed: 11, Kappa: 1, StreamBound: 16},
		window.Window{Kind: window.Sequence, W: 64}, 0.35, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 2000; i++ {
		g := rng.IntN(32) // 32 live groups circulating
		we.Process(geom.Point{float64(g) * 10, rng.Float64() * 0.3})
	}
	got, err := we.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	const truth = 32
	if got < truth/2 || got > truth*2 {
		t.Fatalf("window estimate %g, truth ≈%d", got, truth)
	}
}

func TestWindowEstimatorGrowsWithCardinality(t *testing.T) {
	// Monotonicity check on the observable: more groups in the window →
	// larger estimate (averaged over copies).
	run := func(liveGroups int) float64 {
		rng := rand.New(rand.NewPCG(7, 7))
		we, _ := NewWindowEstimator(core.Options{Alpha: 1, Dim: 2, Seed: 13, Kappa: 1, StreamBound: 16},
			window.Window{Kind: window.Sequence, W: 512}, 0.4, 0)
		for i := int64(1); i <= 1500; i++ {
			g := rng.IntN(liveGroups)
			we.Process(geom.Point{float64(g) * 10, rng.Float64() * 0.3})
		}
		got, err := we.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	small, big := run(8), run(256)
	if big <= small {
		t.Fatalf("estimate not increasing with cardinality: %g groups→%g, %g", small, big, big)
	}
	if big/small < 4 {
		t.Fatalf("32× more groups only moved the estimate %g → %g", small, big)
	}
}

func TestWinPhiConstant(t *testing.T) {
	// winPhi was calibrated against measured level/cardinality ratios
	// (0.83–1.00); it must stay in that band or be re-calibrated.
	if winPhi < 0.8 || winPhi > 1.0 {
		t.Fatal("window F0 bias constant outside its calibrated band")
	}
}

// TestSamplerOwnsStoredPoints: a Median keeps nothing of a batch once it
// has processed it. Two estimators are fed the same batches; after each
// ProcessBatch the second one's batch coordinates are overwritten, and
// the two must still serialize and estimate alike.
func TestSamplerOwnsStoredPoints(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 61, StreamBound: 1 << 12}
	a, err := NewMedian(opts, 0.5, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewMedian(opts, 0.5, 0, 5)
	stream := groupStream(rand.New(rand.NewPCG(67, 71)), 1500, 3)
	for i := 0; i < len(stream); i += 200 {
		src := stream[i:min(i+200, len(stream))]
		batch := make([]geom.Point, len(src))
		slab := make([]float64, 2*len(src))
		for j, p := range src {
			batch[j] = slab[2*j : 2*j+2 : 2*j+2]
			copy(batch[j], p)
		}
		a.ProcessBatch(src)
		b.ProcessBatch(batch)
		for j := range slab {
			slab[j] = -1e9
		}
	}
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatal("overwriting processed batches changed the serialized estimator")
	}
	ea, _ := a.Estimate()
	eb, _ := b.Estimate()
	if ea != eb {
		t.Fatalf("overwriting processed batches moved the estimate: %g, want %g", eb, ea)
	}
}
