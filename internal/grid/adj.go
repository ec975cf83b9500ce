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
// built. Each dimension's base cell and boundary distances depend only on
// p, so they are worked out once per point, before the search; the search
// allocates nothing unless dst has to grow or p has more than stackAxes
// dimensions. Cells come in DFS order — cell(p) first, then per
// dimension offset 0, the negative offsets, the positive ones — and
// contain no duplicates.
func (g *Grid) AppendAdj(dst []CellKey, p geom.Point, radius float64) []CellKey {
	if len(p) != g.dim {
		panic(fmt.Sprintf("grid: point dimension %d does not match grid dimension %d", len(p), g.dim))
	}
	maxOff := int64(math.Ceil(radius / g.side))
	if maxOff < 1 {
		maxOff = 1
	}
	// The axes live in a local array up to stackAxes dimensions. A larger
	// array costs every call its zeroing: one of 64 axes, the dimension
	// bound of core.Options, measured 96 → 146 ns per two-dimensional
	// search.
	var buf [stackAxes]axis
	axes := buf[:0]
	if len(p) > stackAxes {
		axes = make([]axis, 0, len(p))
	}
	for i, x := range p {
		base := int64(math.Floor((x - g.shift[i]) / g.side))
		lo := x - (g.shift[i] + float64(base)*g.side) // distance down to the lower boundary of cell(p)
		axes = append(axes, axis{base: base, lo: lo, hi: g.side - lo})
	}
	s := adjSearch{side: g.side, r2: radius * radius, maxOff: maxOff, dst: dst}
	s.walk(axes, 0, uint64(g.dim)*0x9e3779b97f4a7c15)
	return s.dst
}

// stackAxes is the largest dimension whose search keeps its axes off the
// heap: 20, the largest dimension of this repository's datasets.
const stackAxes = 20

// axis is one dimension of p as the search sees it: the coordinate of
// cell(p) and the distances from p down to its lower and up to its upper
// boundary.
type axis struct {
	base   int64
	lo, hi float64
}

type adjSearch struct {
	side   float64
	r2     float64
	maxOff int64 // ⌈radius/side⌉
	dst    []CellKey
}

// walk explores the first of axes, the dimensions not yet placed, having
// accumulated squared moved distance acc ≤ radius² and the partial cell
// key key over the dimensions before them. The axes are passed down
// rather than kept in s, whose dst leaks: they stay on the stack.
func (s *adjSearch) walk(axes []axis, acc float64, key uint64) {
	ax, rest := &axes[0], axes[1:]

	// Offset 0: stay in this cell row at no cost.
	s.visit(rest, acc, hash.Mix64(key^uint64(ax.base)))

	// Negative offsets: −1, −2, ... each adds one more full side of travel.
	for o := int64(1); o <= s.maxOff; o++ {
		d := ax.lo + float64(o-1)*s.side
		dd := acc + d*d
		if dd > s.r2 {
			break
		}
		s.visit(rest, dd, hash.Mix64(key^uint64(ax.base-o)))
	}

	// Positive offsets.
	for o := int64(1); o <= s.maxOff; o++ {
		d := ax.hi + float64(o-1)*s.side
		dd := acc + d*d
		if dd > s.r2 {
			break
		}
		s.visit(rest, dd, hash.Mix64(key^uint64(ax.base+o)))
	}
}

// visit is a node with axes left to place: a cell once none is left,
// else the subtree walk explores. It inlines into walk, so a cell costs
// no call.
func (s *adjSearch) visit(axes []axis, acc float64, key uint64) {
	if len(axes) == 0 {
		s.dst = append(s.dst, CellKey(key))
		return
	}
	s.walk(axes, acc, key)
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
