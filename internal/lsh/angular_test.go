package lsh

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hash"
)

// unitVector returns a random unit vector in R^dim.
func unitVector(rng *rand.Rand, dim int) geom.Point {
	p := make(geom.Point, dim)
	for {
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		if n := p.Norm(); n > 1e-9 {
			return p.Scale(1 / n)
		}
	}
}

// rotateBy returns a unit vector at exactly the given angle from u.
func rotateBy(rng *rand.Rand, u geom.Point, angle float64) geom.Point {
	// Pick a random direction orthogonal to u, then combine.
	v := unitVector(rng, len(u))
	var dot float64
	for i := range u {
		dot += u[i] * v[i]
	}
	w := v.Sub(u.Scale(dot))
	if n := w.Norm(); n > 1e-9 {
		w = w.Scale(1 / n)
	} else {
		return rotateBy(rng, u, angle)
	}
	return u.Scale(math.Cos(angle)).Add(w.Scale(math.Sin(angle)))
}

func TestNewAngularValidation(t *testing.T) {
	if _, err := NewAngular(0, 8, 0.1, 1); err == nil {
		t.Error("expected error for dim 0")
	}
	if _, err := NewAngular(4, 0, 0.1, 1); err == nil {
		t.Error("expected error for bits 0")
	}
	if _, err := NewAngular(4, 65, 0.1, 1); err == nil {
		t.Error("expected error for bits > 64")
	}
	if _, err := NewAngular(4, 8, 0, 1); err == nil {
		t.Error("expected error for zero angle")
	}
	if _, err := NewAngular(4, 8, math.Pi, 1); err == nil {
		t.Error("expected error for angle ≥ π/2")
	}
}

func TestSameGroupExact(t *testing.T) {
	a, err := NewAngular(16, 10, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 200; i++ {
		u := unitVector(rng, 16)
		inside := rotateBy(rng, u, 0.05)
		outside := rotateBy(rng, u, 0.25)
		if !a.SameGroup(u, inside) {
			t.Fatal("0.05 rad pair not same group at threshold 0.1")
		}
		if a.SameGroup(u, outside) {
			t.Fatal("0.25 rad pair same group at threshold 0.1")
		}
		// Scale invariance: SameGroup works on unnormalized inputs.
		if !a.SameGroup(u.Scale(7), inside.Scale(0.01)) {
			t.Fatal("SameGroup not scale-invariant")
		}
	}
	// Zero vectors.
	zero := make(geom.Point, 16)
	if !a.SameGroup(zero, zero) {
		t.Error("zero vector must match itself")
	}
	if a.SameGroup(zero, unitVector(rng, 16)) {
		t.Error("zero vector must not match a unit vector")
	}
}

func TestSignatureFlipProbability(t *testing.T) {
	// For pairs at angle θ, each hyperplane flips with probability θ/π;
	// check the empirical mean Hamming distance ≈ bits·θ/π.
	const bits, dim = 32, 24
	const theta = 0.15
	a, _ := NewAngular(dim, bits, 0.2, 7)
	rng := rand.New(rand.NewPCG(2, 2))
	var totalFlips int
	const trials = 2000
	for i := 0; i < trials; i++ {
		u := unitVector(rng, dim)
		v := rotateBy(rng, u, theta)
		x, y := a.signature(u), a.signature(v)
		totalFlips += popcount(x ^ y)
	}
	mean := float64(totalFlips) / trials
	want := bits * theta / math.Pi
	if math.Abs(mean-want) > 0.35 {
		t.Fatalf("mean Hamming distance %.3f, want ≈%.3f", mean, want)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestAdjacentContainsCellAndNeighbors(t *testing.T) {
	a, _ := NewAngular(8, 12, 0.1, 9)
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 100; i++ {
		p := unitVector(rng, 8)
		adj := a.Adjacent(nil, p)
		if len(adj) != 13 { // own + 12 single-bit flips
			t.Fatalf("|Adjacent| = %d, want 13", len(adj))
		}
		own := a.Cell(p)
		if adj[0] != own {
			t.Fatal("Adjacent[0] must be the own bucket")
		}
		seen := map[uint64]bool{}
		for _, k := range adj {
			if seen[uint64(k)] {
				t.Fatal("duplicate bucket in Adjacent")
			}
			seen[uint64(k)] = true
		}
	}
}

func TestExpectedProbeRecall(t *testing.T) {
	a, _ := NewAngular(16, 12, 0.1, 11)
	// µ = 12·0.1/π ≈ 0.382 → recall ≈ (1+µ)e^{-µ} ≈ 0.943.
	got := a.ExpectedProbeRecall()
	if got < 0.9 || got > 0.99 {
		t.Fatalf("probe recall %.3f, want ≈0.94", got)
	}
	// Empirically: worst-case pairs at exactly MaxAngle land within
	// Hamming ≤ 1 at about that rate.
	rng := rand.New(rand.NewPCG(4, 4))
	hits := 0
	const trials = 3000
	for i := 0; i < trials; i++ {
		u := unitVector(rng, 16)
		v := rotateBy(rng, u, 0.1)
		if popcount(a.signature(u)^a.signature(v)) <= 1 {
			hits++
		}
	}
	emp := float64(hits) / trials
	if math.Abs(emp-got) > 0.05 {
		t.Fatalf("empirical probe recall %.3f vs predicted %.3f", emp, got)
	}
}

// TestAngularSamplerEndToEnd runs the full robust ℓ0-sampler over the
// Angular space: clusters of near-duplicate directions with very uneven
// sizes must be sampled near-uniformly.
func TestAngularSamplerEndToEnd(t *testing.T) {
	const dim = 24
	const maxAngle = 0.08
	rng := rand.New(rand.NewPCG(5, 5))

	// 12 direction-clusters at pairwise angles ≫ maxAngle, sizes 1..45.
	centers := make([]geom.Point, 12)
	for i := range centers {
		for {
			c := unitVector(rng, dim)
			ok := true
			for _, prev := range centers[:i] {
				if prev == nil {
					break
				}
				var dot float64
				for j := range c {
					dot += c[j] * prev[j]
				}
				if math.Acos(clamp(dot)) < 6*maxAngle {
					ok = false
					break
				}
			}
			if ok {
				centers[i] = c
				break
			}
		}
	}
	var stream []geom.Point
	var labels []int
	for g, c := range centers {
		n := 1 + g*4
		for k := 0; k < n; k++ {
			stream = append(stream, rotateBy(rng, c, rng.Float64()*maxAngle/2))
			labels = append(labels, g)
		}
	}
	rng.Shuffle(len(stream), func(i, j int) {
		stream[i], stream[j] = stream[j], stream[i]
		labels[i], labels[j] = labels[j], labels[i]
	})

	counts := make([]int, len(centers))
	const runs = 3000
	sm := hash.NewSplitMix(17)
	for r := 0; r < runs; r++ {
		space, err := NewAngular(dim, 12, maxAngle, sm.Next())
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewSampler(core.Options{
			Alpha: maxAngle, // informational; Space overrides geometry
			Dim:   dim,
			Seed:  sm.Next(),
			Space: space,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range stream {
			s.Process(p)
		}
		q, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		lab := -1
		for i, p := range stream {
			if space.SameGroup(p, q) {
				lab = labels[i]
				break
			}
		}
		if lab < 0 {
			t.Fatal("sample is not a near-duplicate of any stream point")
		}
		counts[lab]++
	}
	// Multi-probe misses relax exact uniformity to Θ(1) factors; demand
	// every group within a factor 2 of uniform — far tighter than the
	// 45× duplication skew of the input.
	target := float64(runs) / float64(len(centers))
	for g, c := range counts {
		if float64(c) < target/2 || float64(c) > target*2 {
			t.Errorf("group %d (size %d): %d hits, want ≈%.0f (×/÷2)", g, 1+g*4, c, target)
		}
	}
}

func clamp(x float64) float64 {
	if x > 1 {
		return 1
	}
	if x < -1 {
		return -1
	}
	return x
}
