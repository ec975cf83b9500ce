// Package dataset reproduces the experimental workloads of Section 6.1:
// the base datasets (Rand5, Rand20 exactly as described; Yacht and Seeds as
// synthetic stand-ins for the UCI sets, see Yacht), the two
// near-duplicate transformations (uniform k ∈ {1..100} and power-law
// ⌈n·i⁻¹⌉), rescaling to minimum pairwise distance 1, and seeded shuffling.
//
// Every generator takes an explicit seed and is fully deterministic, so
// experiments are reproducible bit for bit.
package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"repro/internal/geom"
)

// Base identifies one of the paper's four base datasets.
type Base int

const (
	// Rand5 is 500 uniform random points in (0,1)^5.
	Rand5 Base = iota
	// Rand20 is 500 uniform random points in (0,1)^20.
	Rand20
	// Yacht is a 308-point, 7-dimensional stand-in for the UCI yacht
	// hydrodynamics dataset. The repository ships no data files and
	// fetches none, so Yacht and Seeds are generated: Gaussian mixtures
	// with the real sets' sizes and dimensions and a cluster structure in
	// their spirit (Generate). The experiments depend on the size, the
	// dimension and the well-separated instance Build makes after
	// rescaling, which the substitution keeps; the real coordinates are
	// not kept, so absolute numbers on these two can differ from the
	// paper's.
	Yacht
	// Seeds is a 210-point, 8-dimensional stand-in for the UCI seeds
	// dataset: three wheat-variety clusters (the substitution is described
	// under Yacht).
	Seeds
)

// String implements fmt.Stringer with the paper's dataset names.
func (b Base) String() string {
	switch b {
	case Rand5:
		return "Rand5"
	case Rand20:
		return "Rand20"
	case Yacht:
		return "Yacht"
	case Seeds:
		return "Seeds"
	default:
		return fmt.Sprintf("dataset.Base(%d)", int(b))
	}
}

// Dim returns the dimension of the base dataset.
func (b Base) Dim() int {
	switch b {
	case Rand5:
		return 5
	case Rand20:
		return 20
	case Yacht:
		return 7
	case Seeds:
		return 8
	default:
		panic(fmt.Sprintf("dataset: unknown base %d", int(b)))
	}
}

// Size returns the number of base points.
func (b Base) Size() int {
	switch b {
	case Rand5, Rand20:
		return 500
	case Yacht:
		return 308
	case Seeds:
		return 210
	default:
		panic(fmt.Sprintf("dataset: unknown base %d", int(b)))
	}
}

// Generate produces the base dataset with the given seed.
func (b Base) Generate(seed uint64) geom.Dataset {
	rng := rand.New(rand.NewPCG(seed, uint64(b)+1))
	switch b {
	case Rand5:
		return uniformCube(rng, 500, 5)
	case Rand20:
		return uniformCube(rng, 500, 20)
	case Yacht:
		// 22 hull-geometry clusters of varying size and anisotropic spread,
		// mimicking the strong grouping of the real yacht measurements.
		return gaussianMixture(rng, 308, 7, 22, 0.35)
	case Seeds:
		// Three wheat varieties with moderate within-variety spread.
		return gaussianMixture(rng, 210, 8, 3, 0.25)
	default:
		panic(fmt.Sprintf("dataset: unknown base %d", int(b)))
	}
}

func uniformCube(rng *rand.Rand, n, d int) geom.Dataset {
	ds := make(geom.Dataset, n)
	for i := range ds {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds[i] = p
	}
	return ds
}

// gaussianMixture draws n points in d dimensions from k Gaussian clusters
// with centers uniform in (0,1)^d and per-dimension standard deviation
// sigma·(0.3+0.7·u) (anisotropic), cluster weights proportional to
// 1/(1+index) so sizes vary as in real measurement data.
func gaussianMixture(rng *rand.Rand, n, d, k int, sigma float64) geom.Dataset {
	centers := make([]geom.Point, k)
	scales := make([][]float64, k)
	for c := range centers {
		centers[c] = make(geom.Point, d)
		scales[c] = make([]float64, d)
		for j := 0; j < d; j++ {
			centers[c][j] = rng.Float64()
			scales[c][j] = sigma * (0.3 + 0.7*rng.Float64())
		}
	}
	// Cumulative weights ∝ 1/(1+c).
	cum := make([]float64, k)
	total := 0.0
	for c := 0; c < k; c++ {
		total += 1 / float64(1+c)
		cum[c] = total
	}
	ds := make(geom.Dataset, n)
	for i := range ds {
		u := rng.Float64() * total
		c := 0
		for c < k-1 && u > cum[c] {
			c++
		}
		p := make(geom.Point, d)
		for j := 0; j < d; j++ {
			p[j] = centers[c][j] + scales[c][j]*rng.NormFloat64()
		}
		ds[i] = p
	}
	return ds
}

// DupKind selects the near-duplicate transformation of Section 6.1.
type DupKind int

const (
	// DupUniform adds k_i ~ Uniform{1..100} near-duplicates per base point
	// (the paper's first transformation).
	DupUniform DupKind = iota
	// DupPowerLaw adds ⌈n·i⁻¹⌉ near-duplicates to the i-th base point in a
	// random ordering (the paper's second transformation, the "-pl"
	// datasets).
	DupPowerLaw
)

// String implements fmt.Stringer.
func (k DupKind) String() string {
	switch k {
	case DupUniform:
		return "uniform"
	case DupPowerLaw:
		return "power-law"
	default:
		return fmt.Sprintf("dataset.DupKind(%d)", int(k))
	}
}

// WithDuplicates applies the paper's near-duplicate generation to a base
// dataset that has already been rescaled to minimum pairwise distance 1:
// for each base point x, it emits x followed by its near-duplicates
// y = x + ẑ where z is uniform in (0,1)^d rescaled to a length drawn
// uniformly from (0, 1/(2·d^1.5)).
//
// It returns the noisy dataset together with the group id of every emitted
// point (the index of its base point), which is the experiment's ground
// truth. The output order is base-point-major; use Shuffle before
// streaming, as the paper does.
func WithDuplicates(base geom.Dataset, kind DupKind, seed uint64) (geom.Dataset, []int) {
	rng := rand.New(rand.NewPCG(seed, 0x6475706b696e64+uint64(kind)))
	n := len(base)
	d := base.Dim()
	maxLen := 1 / (2 * math.Pow(float64(d), 1.5))

	// Number of duplicates per base point.
	counts := make([]int, n)
	switch kind {
	case DupUniform:
		for i := range counts {
			counts[i] = 1 + rng.IntN(100)
		}
	case DupPowerLaw:
		// The paper randomly orders the points x_1..x_n and gives the i-th
		// point ⌈n·i⁻¹⌉ duplicates.
		perm := rng.Perm(n)
		for rank, idx := range perm {
			counts[idx] = int(math.Ceil(float64(n) / float64(rank+1)))
		}
	default:
		panic(fmt.Sprintf("dataset: unknown duplicate kind %d", int(kind)))
	}

	var out geom.Dataset
	var groups []int
	for i, x := range base {
		out = append(out, x)
		groups = append(groups, i)
		for k := 0; k < counts[i]; k++ {
			out = append(out, nearDuplicate(rng, x, maxLen))
			groups = append(groups, i)
		}
	}
	return out, groups
}

// nearDuplicate implements the paper's three-step generation: a direction
// from uniform (0,1)^d coordinates, rescaled to a uniform length in
// (0, maxLen), added to x.
func nearDuplicate(rng *rand.Rand, x geom.Point, maxLen float64) geom.Point {
	d := len(x)
	z := make(geom.Point, d)
	for j := range z {
		z[j] = rng.Float64()
	}
	norm := z.Norm()
	if norm == 0 {
		norm = 1
	}
	l := rng.Float64() * maxLen
	y := make(geom.Point, d)
	for j := range y {
		y[j] = x[j] + z[j]*l/norm
	}
	return y
}

// Shuffle permutes points and their group labels together with the given
// seed, reproducing the paper's "randomly shuffled before being fed into
// our algorithms".
func Shuffle(ds geom.Dataset, groups []int, seed uint64) (geom.Dataset, []int) {
	rng := rand.New(rand.NewPCG(seed, 0x73687566666c65))
	out := ds.Clone()
	g := append([]int(nil), groups...)
	rng.Shuffle(len(out), func(i, j int) {
		out[i], out[j] = out[j], out[i]
		g[i], g[j] = g[j], g[i]
	})
	return out, g
}

// Spec names a complete experimental workload: a base dataset plus a
// duplicate transformation, e.g. {Rand5, DupPowerLaw} is the paper's
// "Rand5-pl".
type Spec struct {
	Base Base
	Kind DupKind
}

// Name renders the paper's dataset naming ("Rand5", "Rand5-pl", ...).
func (s Spec) Name() string {
	if s.Kind == DupPowerLaw {
		return s.Base.String() + "-pl"
	}
	return s.Base.String()
}

// AllSpecs lists the paper's eight experimental datasets in figure order
// (Figures 5–12).
func AllSpecs() []Spec {
	return []Spec{
		{Rand5, DupUniform}, {Rand20, DupUniform}, {Yacht, DupUniform}, {Seeds, DupUniform},
		{Rand5, DupPowerLaw}, {Rand20, DupPowerLaw}, {Yacht, DupPowerLaw}, {Seeds, DupPowerLaw},
	}
}

// SpecByName resolves the paper's dataset names ("rand5", "yacht-pl", ...)
// case-insensitively; it returns an error listing the valid names.
func SpecByName(name string) (Spec, error) {
	for _, s := range AllSpecs() {
		if strings.EqualFold(s.Name(), name) {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown dataset %q (want one of rand5, rand20, yacht, seeds, rand5-pl, rand20-pl, yacht-pl, seeds-pl)", name)
}

// Instance is a fully materialized workload: the noisy, shuffled stream
// with ground-truth group labels and the α to use.
type Instance struct {
	Spec      Spec
	Points    geom.Dataset
	Groups    []int   // ground-truth group of each stream point
	NumGroups int     // number of distinct groups (= base size)
	Alpha     float64 // distance threshold handed to the samplers
}

// Build materializes a workload: generate the base set, rescale to minimum
// pairwise distance 1, add near-duplicates, and shuffle. Alpha is set to
// 2·maxLen = 1/d^1.5: every near-duplicate sits within maxLen of its base
// point, so intra-group diameter ≤ 2·maxLen = α, while distinct base
// points are ≥ 1 apart — comfortably more than 2α for d ≥ 2, making the
// instance well-separated per Definition 1.2.
func Build(spec Spec, seed uint64) Instance {
	base := spec.Base.Generate(seed).NormalizeMinDist()
	noisy, groups := WithDuplicates(base, spec.Kind, seed+1)
	pts, g := Shuffle(noisy, groups, seed+2)
	d := float64(spec.Base.Dim())
	return Instance{
		Spec:      spec,
		Points:    pts,
		Groups:    g,
		NumGroups: len(base),
		Alpha:     1 / math.Pow(d, 1.5),
	}
}
