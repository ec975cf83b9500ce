package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/geom"
)

// TestAdjacentStartsWithCell pins the part of the Space.Adjacent
// contract that the samplers and decoders read p's cell from: the first
// cell the Euclidean space appends is Cell(p), on the grids the samplers
// post — side α/2 (Section 2.1), α/4 (the smallest side Options admit),
// d·α (Section 4) and the ablation's d·α/4. The fine grids are searched
// only up to 8 and 6 dimensions: every ±1 neighbour of p lies within α
// there up to 16 and 64 dimensions, so adj(p) holds over 3^d cells and
// grows about 3× and 5× per dimension (33k and 79k cells at those caps).
func TestAdjacentStartsWithCell(t *testing.T) {
	const alpha = 1.5
	rng := rand.New(rand.NewPCG(29, 31))
	grids := []struct {
		name   string
		side   func(dim int) float64
		maxDim int
	}{
		{"α/2", func(int) float64 { return alpha / 2 }, 8},
		{"α/4", func(int) float64 { return alpha / 4 }, 6},
		{"d·α", func(d int) float64 { return float64(d) * alpha }, 20},
		{"d·α/4", func(d int) float64 { return float64(d) * alpha / 4 }, 20},
	}
	for _, g := range grids {
		for dim := 1; dim <= g.maxDim; dim++ {
			spc := NewEuclideanSpace(dim, g.side(dim), alpha, uint64(dim))
			for range 4 {
				p := make(geom.Point, dim)
				for i := range p {
					p[i] = (rng.Float64() - 0.5) * 200
				}
				if adj := spc.Adjacent(nil, p); len(adj) == 0 || adj[0] != spc.Cell(p) {
					t.Fatalf("%s grid, dim %d, p=%v: Adjacent does not start with Cell(p)", g.name, dim, p)
				}
			}
		}
	}
}
