// Package grid implements the randomly shifted grid used by the robust
// ℓ0-sampling algorithms: cell identification, the adjacency set
//
//	adj(p) = {C ∈ G : d(p, C) ≤ α}
//
// computed by the pruned depth-first search of the paper's Algorithms 6–7,
// and a naive 3^d reference implementation used for differential testing
// and for the ablation benchmark of Section 6.2.
//
// For well-separated data in constant dimension the paper posts a grid of
// side α/2 (Section 2.1); for (α,β)-sparse data in d dimensions with
// β > d^1.5·α it uses side d·α (Section 4). The side length is a parameter
// here; the sampler package chooses it per mode.
package grid

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/hash"
)

// CellKey identifies a grid cell. It is a 64-bit mix of the cell's integer
// coordinates; see Key for the construction. The paper uses the numeric ID
// (i−1)·Δ+j on a bounded domain — the 64-bit mixed key removes the bounded
// domain assumption at a negligible collision probability.
type CellKey uint64

// Coord is the integer coordinate vector of a cell (floor((x−shift)/side)
// per dimension).
type Coord []int64

// Key mixes the coordinate vector into a CellKey. The mixing is a chained
// SplitMix64 finalizer, order-dependent so that permuted coordinates map to
// different keys.
func (c Coord) Key() CellKey {
	acc := uint64(len(c)) * 0x9e3779b97f4a7c15
	for _, v := range c {
		acc = hash.Mix64(acc ^ uint64(v))
	}
	return CellKey(acc)
}

// Clone returns a copy of the coordinate vector.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Grid is a d-dimensional axis-aligned grid with side length Side and a
// random shift in [0, Side)^d. The shift realizes the paper's "random grid":
// group/cell cutting probabilities are taken over this shift.
type Grid struct {
	side  float64
	dim   int
	shift []float64
}

// New creates a grid with the given dimension and side length, with the
// random shift drawn from the seed. Side must be positive.
func New(dim int, side float64, seed uint64) *Grid {
	if dim < 1 {
		panic(fmt.Sprintf("grid: dimension must be ≥ 1, got %d", dim))
	}
	if !(side > 0) {
		panic(fmt.Sprintf("grid: side must be positive, got %g", side))
	}
	sm := hash.NewSplitMix(seed)
	shift := make([]float64, dim)
	for i := range shift {
		// Uniform in [0, side): take 53 random bits as a fraction.
		shift[i] = side * float64(sm.Next()>>11) / (1 << 53)
	}
	return &Grid{side: side, dim: dim, shift: shift}
}

// Dim returns the grid dimension.
func (g *Grid) Dim() int { return g.dim }

// CoordOf returns the integer coordinates of the cell containing p.
func (g *Grid) CoordOf(p geom.Point) Coord {
	if len(p) != g.dim {
		panic(fmt.Sprintf("grid: point dimension %d does not match grid dimension %d", len(p), g.dim))
	}
	c := make(Coord, g.dim)
	for i, x := range p {
		c[i] = int64(math.Floor((x - g.shift[i]) / g.side))
	}
	return c
}

// CellOf returns the key of the cell containing p.
func (g *Grid) CellOf(p geom.Point) CellKey { return CellKey(g.CellHash(p)) }

// CellHash returns the cell key of p as a raw uint64 without allocating
// the intermediate coordinate vector — the ingestion/routing hot path.
// It must stay equivalent to CoordOf(p).Key() (differentially tested).
func (g *Grid) CellHash(p geom.Point) uint64 {
	if len(p) != g.dim {
		panic(fmt.Sprintf("grid: point dimension %d does not match grid dimension %d", len(p), g.dim))
	}
	acc := uint64(g.dim) * 0x9e3779b97f4a7c15
	for i, x := range p {
		c := int64(math.Floor((x - g.shift[i]) / g.side))
		acc = hash.Mix64(acc ^ uint64(c))
	}
	return acc
}

// CellDist returns the Euclidean distance from p to the closed cell with
// integer coordinates c (zero if p lies inside the cell).
func (g *Grid) CellDist(p geom.Point, c Coord) float64 {
	var s float64
	for i, x := range p {
		lo := g.shift[i] + float64(c[i])*g.side
		hi := lo + g.side
		switch {
		case x < lo:
			d := lo - x
			s += d * d
		case x > hi:
			d := x - hi
			s += d * d
		}
	}
	return math.Sqrt(s)
}
