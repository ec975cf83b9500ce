package core

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// Space abstracts the locality structure the samplers need: a bucketing of
// points (the paper's grid cells) plus the near-duplicate predicate. The
// paper's concluding remark observes that the random grid is a particular
// locality-sensitive hash function and that the algorithms should
// generalize to any metric space with an efficient LSH; this interface is
// that generalization point. The Euclidean grid (NewEuclideanSpace) is the
// default and carries the paper's guarantees; other implementations (e.g.
// lsh.Angular) are experimental in exactly the sense the paper leaves them
// as future work.
type Space interface {
	// Cell returns the bucket containing p.
	Cell(p geom.Point) grid.CellKey

	// Adjacent appends to dst every bucket that may contain the
	// representative of p's group — in the Euclidean case, all cells
	// within distance α of p — and returns the extended slice, like the
	// built-in append: the samplers pass a scratch buffer and copy the
	// result only into an entry they store, so a search into a buffer
	// with room should not allocate. The first bucket appended must be
	// Cell(p): the samplers and decoders read p's own bucket from there
	// instead of calling Cell, which would locate p a second time.
	// Completeness of this set is what keeps the reject-set bookkeeping
	// (and hence uniformity) exact; an approximate LSH implementation
	// trades a little uniformity for generality.
	Adjacent(dst []grid.CellKey, p geom.Point) []grid.CellKey

	// SameGroup reports whether two points are near-duplicates (in the
	// Euclidean case, d(u,v) ≤ α).
	SameGroup(u, v geom.Point) bool
}

// euclideanSpace is the paper's randomly shifted grid with the α-ball
// near-duplicate predicate.
type euclideanSpace struct {
	g     *grid.Grid
	alpha float64
}

// NewEuclideanSpace builds the standard grid-backed Space: cells of the
// given side, adjacency radius and near-duplicate threshold alpha.
func NewEuclideanSpace(dim int, side, alpha float64, seed uint64) Space {
	return &euclideanSpace{g: grid.New(dim, side, seed), alpha: alpha}
}

func (s *euclideanSpace) Cell(p geom.Point) grid.CellKey { return s.g.CellOf(p) }

func (s *euclideanSpace) Adjacent(dst []grid.CellKey, p geom.Point) []grid.CellKey {
	return s.g.AppendAdj(dst, p, s.alpha)
}

func (s *euclideanSpace) SameGroup(u, v geom.Point) bool {
	return geom.WithinBall(u, v, s.alpha)
}
