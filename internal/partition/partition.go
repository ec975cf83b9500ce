// Package partition provides the offline group-partition toolkit the paper
// reasons with: the natural partition of a well-separated dataset
// (Definition 1.3), greedy partitions (Definition 3.2), separation
// diagnostics (Definitions 1.1–1.2), and the Lemma 3.3 relationship between
// greedy and minimum-cardinality partitions.
//
// These run offline over full datasets (they are ground truth for tests and
// experiments, not streaming algorithms) but still use grid bucketing to
// stay near-linear for the well-separated case.
package partition

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/grid"
)

// Partition assigns each dataset index to a group. Groups is the number of
// groups; Assign[i] ∈ [0, Groups) is point i's group id, numbered in order
// of first appearance in the dataset.
type Partition struct {
	Groups int
	Assign []int
}

// Sizes returns the number of points per group.
func (p Partition) Sizes() []int {
	sizes := make([]int, p.Groups)
	for _, g := range p.Assign {
		sizes[g]++
	}
	return sizes
}

// GroupOf returns the group id of point index i.
func (p Partition) GroupOf(i int) int { return p.Assign[i] }

// Natural computes the natural partition of a well-separated dataset with
// group diameter threshold alpha: the connected components of the
// "distance ≤ alpha" graph. For a well-separated dataset (separation ratio
// > 2) these components have intra-group distance ≤ α and inter-group
// distance > 2α, matching Definition 1.3 exactly; for non-well-separated
// data the result is single-linkage clustering at threshold α, which tests
// must not treat as the minimum-cardinality partition.
//
// Implementation: union–find over edges discovered via grid bucketing with
// cell side alpha, so only points in neighbouring cells are compared.
func Natural(ds geom.Dataset, alpha float64) Partition {
	n := len(ds)
	uf := newUnionFind(n)
	if n > 0 {
		g := grid.New(ds.Dim(), alpha, 12345)
		buckets := make(map[grid.CellKey][]int, n)
		for i, p := range ds {
			buckets[g.CellOf(p)] = append(buckets[g.CellOf(p)], i)
		}
		var adj []grid.CellKey
		for i, p := range ds {
			adj = g.AppendAdj(adj[:0], p, alpha)
			for _, c := range adj {
				for _, j := range buckets[c] {
					if j < i && geom.WithinBall(p, ds[j], alpha) {
						uf.union(i, j)
					}
				}
			}
		}
	}
	return uf.partition()
}

// Greedy computes the greedy partition of Definition 3.2 processing points
// in the given order (nil = dataset order): repeatedly take the first
// unassigned point p, open the group Ball(p, alpha) ∩ S among unassigned
// points, and continue. Groups have radius ≤ α around their opener (so
// diameter ≤ 2α). By Lemma 3.3 the number of greedy groups is within a
// constant factor of the minimum-cardinality partition size for any order.
func Greedy(ds geom.Dataset, alpha float64, order []int) Partition {
	n := len(ds)
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("partition: order has %d indices for %d points", len(order), n))
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	groups := 0
	if n > 0 {
		g := grid.New(ds.Dim(), alpha, 54321)
		buckets := make(map[grid.CellKey][]int, n)
		for i, p := range ds {
			buckets[g.CellOf(p)] = append(buckets[g.CellOf(p)], i)
		}
		var adj []grid.CellKey
		for _, i := range order {
			if assign[i] != -1 {
				continue
			}
			id := groups
			groups++
			p := ds[i]
			adj = g.AppendAdj(adj[:0], p, alpha)
			for _, c := range adj {
				for _, j := range buckets[c] {
					if assign[j] == -1 && geom.WithinBall(p, ds[j], alpha) {
						assign[j] = id
					}
				}
			}
		}
	}
	return Partition{Groups: groups, Assign: assign}
}

// Diameter returns the maximum intra-group distance under the partition.
func Diameter(ds geom.Dataset, p Partition) float64 {
	var maxD float64
	for i := 0; i < len(ds); i++ {
		for j := i + 1; j < len(ds); j++ {
			if p.Assign[i] == p.Assign[j] {
				if d := geom.Dist(ds[i], ds[j]); d > maxD {
					maxD = d
				}
			}
		}
	}
	return maxD
}

// MinInterDist returns the minimum distance between points of different
// groups, or +Inf when the partition has a single group. Together with
// Diameter this verifies well-separation: natural partitions of
// well-separated data have Diameter ≤ α and MinInterDist > 2α.
func MinInterDist(ds geom.Dataset, p Partition) float64 {
	best := math.Inf(1)
	for i := 0; i < len(ds); i++ {
		for j := i + 1; j < len(ds); j++ {
			if p.Assign[i] != p.Assign[j] {
				if d := geom.Dist(ds[i], ds[j]); d < best {
					best = d
				}
			}
		}
	}
	return best
}

// IsWellSeparated reports whether the dataset is (α, β)-sparse with
// β/α > 2 under its natural partition at threshold alpha: every intra-group
// distance ≤ α and every inter-group distance > 2α.
func IsWellSeparated(ds geom.Dataset, alpha float64) bool {
	p := Natural(ds, alpha)
	return Diameter(ds, p) <= alpha && MinInterDist(ds, p) > 2*alpha
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

// partition renumbers roots in order of first appearance.
func (uf *unionFind) partition() Partition {
	assign := make([]int, len(uf.parent))
	idOf := make(map[int]int)
	for i := range uf.parent {
		root := uf.find(i)
		id, ok := idOf[root]
		if !ok {
			id = len(idOf)
			idOf[root] = id
		}
		assign[i] = id
	}
	return Partition{Groups: len(idOf), Assign: assign}
}
