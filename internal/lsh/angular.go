// Package lsh provides locality-sensitive-hashing Spaces for the robust
// ℓ0-sampler beyond the Euclidean grid — the generalization the paper's
// concluding remarks pose as future work ("it is possible to generalize
// our algorithms to general metric spaces that are equipped with efficient
// locality-sensitive hash functions").
//
// Status: the Euclidean grid carries the paper's proofs; the spaces here
// are faithful to the algorithmic recipe (bucket, adjacency probe,
// near-duplicate predicate) but their uniformity guarantees inherit the
// open-problem status of that remark. The caveats are quantified on each
// implementation and exercised by statistical tests.
package lsh

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hash"
)

// Angular is a SimHash-based Space for unit-norm vectors under angular
// distance: two points are near-duplicates when the angle between them is
// at most MaxAngle. Buckets are the sign patterns of `bits` random
// hyperplanes (Charikar's SimHash); Adjacent probes the own bucket plus
// all buckets at Hamming distance ≤ 1 (multi-probe).
//
// For two vectors at angle θ, each hyperplane separates them independently
// with probability θ/π, so a near-duplicate pair differs in
// Binomial(bits, θ/π) signature bits. Choose bits so that
// bits·MaxAngle/π ≲ 1 and the Hamming-≤1 probe covers the pair with
// probability ≈ (1+µ)e^{-µ}, µ = bits·MaxAngle/π — e.g. ≈ 0.95 at µ = 0.4.
// Same-group points missed by the probe can spawn a duplicate
// representative, relaxing exact uniformity to the same Θ(1)-factor regime
// as the paper's general-dataset guarantee (Theorem 3.1); SameGroup is
// exact, so no sample is ever a false near-duplicate.
type Angular struct {
	planes   []geom.Point
	dim      int
	maxAngle float64
	cosThr   float64
}

var _ core.Space = (*Angular)(nil)

// NewAngular builds a SimHash space for dim-dimensional vectors treating
// angles ≤ maxAngle (radians, in (0, π/2)) as near-duplicates, with the
// given number of hyperplane bits (1–64).
func NewAngular(dim, bits int, maxAngle float64, seed uint64) (*Angular, error) {
	if dim < 1 {
		return nil, fmt.Errorf("lsh: dimension must be ≥ 1, got %d", dim)
	}
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("lsh: bits must be in [1, 64], got %d", bits)
	}
	if !(maxAngle > 0 && maxAngle < math.Pi/2) {
		return nil, fmt.Errorf("lsh: maxAngle must be in (0, π/2), got %g", maxAngle)
	}
	rng := rand.New(rand.NewPCG(seed, 0xa4675a7)) // distinct stream per seed
	planes := make([]geom.Point, bits)
	for i := range planes {
		v := make(geom.Point, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		planes[i] = v
	}
	return &Angular{
		planes:   planes,
		dim:      dim,
		maxAngle: maxAngle,
		cosThr:   math.Cos(maxAngle),
	}, nil
}

// Bits returns the signature width.
func (a *Angular) Bits() int { return len(a.planes) }

// ExpectedProbeRecall returns the probability that a worst-case
// near-duplicate pair (at exactly MaxAngle) lands within the Hamming-≤1
// probe: P[Binomial(bits, MaxAngle/π) ≤ 1].
func (a *Angular) ExpectedProbeRecall() float64 {
	p := a.maxAngle / math.Pi
	n := float64(len(a.planes))
	q := math.Pow(1-p, n)
	return q + n*p*math.Pow(1-p, n-1)
}

// signature computes the SimHash bit pattern of p.
func (a *Angular) signature(p geom.Point) uint64 {
	if len(p) != a.dim {
		panic(fmt.Sprintf("lsh: point dimension %d, space dimension %d", len(p), a.dim))
	}
	var sig uint64
	for i, plane := range a.planes {
		var dot float64
		for j, v := range plane {
			dot += v * p[j]
		}
		if dot >= 0 {
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// Cell returns the bucket key of p: the mixed SimHash signature.
func (a *Angular) Cell(p geom.Point) grid.CellKey {
	return grid.CellKey(hash.Mix64(a.signature(p) ^ 0x5197a7)) // fixed domain tag
}

// Adjacent appends to dst the own bucket plus every bucket at Hamming
// distance 1, and returns the extended slice.
func (a *Angular) Adjacent(dst []grid.CellKey, p geom.Point) []grid.CellKey {
	sig := a.signature(p)
	dst = append(dst, grid.CellKey(hash.Mix64(sig^0x5197a7)))
	for i := 0; i < len(a.planes); i++ {
		dst = append(dst, grid.CellKey(hash.Mix64((sig^(1<<uint(i)))^0x5197a7)))
	}
	return dst
}

// SameGroup reports whether the angle between u and v is at most MaxAngle,
// via cosine similarity of the normalized vectors. Zero vectors are only
// near-duplicates of other zero vectors.
func (a *Angular) SameGroup(u, v geom.Point) bool {
	var dot, nu, nv float64
	for i := range u {
		dot += u[i] * v[i]
		nu += u[i] * u[i]
		nv += v[i] * v[i]
	}
	if nu == 0 || nv == 0 {
		return nu == nv
	}
	return dot/math.Sqrt(nu*nv) >= a.cosThr
}
