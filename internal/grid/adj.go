package grid

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/hash"
)

// AppendAdj appends to dst the keys of all cells C with d(p, C) ≤ radius,
// computed by a pruned depth-first search generalizing the paper's
// Algorithms 6–7 (Section 6.2), and returns the extended slice.
//
// The paper's DFS considers three moves per dimension (snap to the lower
// cell boundary, stay, snap to the upper boundary), which is exact when the
// cell side is at least the radius — the Section 4 regime (side = d·α,
// radius = α). In the 2-dimensional infinite-window regime of Section 2.1
// the side is α/2 and the radius α, so cells up to two steps away can be
// within distance α (hence the paper's |adj(p)| ≤ 25 = 5×5 bound). This
// implementation therefore allows offsets up to ±⌈radius/side⌉ per
// dimension: offset o > 0 in dimension i costs (o−1)·side + (hi − x_i) of
// moved distance, o < 0 costs (|o|−1)·side + (x_i − lo), and o = 0 costs
// nothing. Branches whose accumulated squared distance exceeds radius² are
// pruned, so for the separation ratios the algorithms require the expected
// number of explored leaves stays O(1) per point (paper Lemma 4.2).
//
// Each node of the search extends its parent's partial key by one
// coordinate, the chain Coord.Key computes, so no coordinate vector is
// built and the search allocates only when dst has to grow. Cells come in
// DFS order — cell(p) first, then per dimension offset 0, the negative
// offsets, the positive ones — and contain no duplicates.
func (g *Grid) AppendAdj(dst []CellKey, p geom.Point, radius float64) []CellKey {
	if len(p) != g.dim {
		panic(fmt.Sprintf("grid: point dimension %d does not match grid dimension %d", len(p), g.dim))
	}
	maxOff := int64(math.Ceil(radius / g.side))
	if maxOff < 1 {
		maxOff = 1
	}
	s := adjSearch{g: g, p: p, r2: radius * radius, maxOff: maxOff, dst: dst}
	s.walk(0, 0, uint64(g.dim)*0x9e3779b97f4a7c15)
	return s.dst
}

type adjSearch struct {
	g      *Grid
	p      geom.Point
	r2     float64
	maxOff int64 // ⌈radius/side⌉
	dst    []CellKey
}

// walk explores dimension i having accumulated squared moved distance acc
// and the partial cell key key over dimensions 0..i−1.
func (s *adjSearch) walk(i int, acc float64, key uint64) {
	if acc > s.r2 {
		return
	}
	if i == len(s.p) {
		s.dst = append(s.dst, CellKey(key))
		return
	}
	g := s.g
	x := s.p[i]
	base := int64(math.Floor((x - g.shift[i]) / g.side))
	dLo := x - (g.shift[i] + float64(base)*g.side) // distance down to the lower boundary of cell(p)
	dHi := g.side - dLo                            // distance up to the upper boundary

	// Offset 0: stay in this cell row at no cost.
	s.walk(i+1, acc, hash.Mix64(key^uint64(base)))

	// Negative offsets: −1, −2, ... each adds one more full side of travel.
	for o := int64(1); o <= s.maxOff; o++ {
		d := dLo + float64(o-1)*g.side
		dd := acc + d*d
		if dd > s.r2 {
			break
		}
		s.walk(i+1, dd, hash.Mix64(key^uint64(base-o)))
	}

	// Positive offsets.
	for o := int64(1); o <= s.maxOff; o++ {
		d := dHi + float64(o-1)*g.side
		dd := acc + d*d
		if dd > s.r2 {
			break
		}
		s.walk(i+1, dd, hash.Mix64(key^uint64(base+o)))
	}
}

// AdjNaive enumerates all (2K+1)^d cells with coordinate offsets in
// [−K, K], K = ⌈radius/side⌉, and filters by d(p, C) ≤ radius. It is the
// reference implementation for differential tests and the Section 6.2
// ablation benchmark; use AppendAdj in production code.
func (g *Grid) AdjNaive(p geom.Point, radius float64) []CellKey {
	coords := g.AdjNaiveCoords(p, radius)
	keys := make([]CellKey, len(coords))
	for i, c := range coords {
		keys[i] = c.Key()
	}
	return keys
}

// AdjNaiveCoords is AdjNaive returning coordinates.
func (g *Grid) AdjNaiveCoords(p geom.Point, radius float64) []Coord {
	base := g.CoordOf(p)
	k := int64(math.Ceil(radius / g.side))
	if k < 1 {
		k = 1
	}
	cur := base.Clone()
	var out []Coord
	var rec func(i int)
	rec = func(i int) {
		if i == g.dim {
			if g.CellDist(p, cur) <= radius {
				out = append(out, cur.Clone())
			}
			return
		}
		for d := -k; d <= k; d++ {
			cur[i] = base[i] + d
			rec(i + 1)
		}
		cur[i] = base[i]
	}
	rec(0)
	return out
}
