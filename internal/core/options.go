// Package core implements the paper's primary contribution: robust
// ℓ0-sampling for streams with near-duplicates.
//
//   - Sampler is Algorithm 1 (infinite window).
//   - FixedWindow is Algorithm 2 (sliding window at a fixed sample rate),
//     usable on its own and as the per-level building block of the next.
//   - WindowSampler is Algorithms 3–5 (the space-efficient hierarchical
//     sliding-window sampler with Split/Merge).
//
// All samplers treat two points within distance Alpha as near-duplicates of
// the same universe element (group) and return each group with (near-)equal
// probability, per Definitions 1.5 and 1.6.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"repro/internal/hash"
)

// HashKind selects the hash family backing cell subsampling.
type HashKind int

const (
	// HashKWise uses a Θ(log m)-wise independent polynomial family over
	// GF(2^61−1); this matches the independence the paper's analysis needs.
	HashKWise HashKind = iota
	// HashPRF uses a fast seeded PRF as a stand-in for the paper's fully
	// random hash function assumption.
	HashPRF
)

// String implements fmt.Stringer.
func (k HashKind) String() string {
	switch k {
	case HashKWise:
		return "kwise"
	case HashPRF:
		return "prf"
	default:
		return fmt.Sprintf("core.HashKind(%d)", int(k))
	}
}

// Options configures a sampler. The zero value is not usable; Alpha and Dim
// are required. See the field comments for defaults applied by normalize.
type Options struct {
	// Alpha is the group diameter threshold α: points within distance α are
	// near-duplicates. Required, must be positive.
	Alpha float64

	// Dim is the dimension of the Euclidean space. Required, must be in
	// [1, 64] (maxDim).
	Dim int

	// StreamBound is m, an upper bound on the stream length used to size
	// the Θ(log m) accept-set threshold and the hash independence.
	// Defaults to 1<<20.
	StreamBound int

	// Kappa is the constant κ0 in the accept-set threshold κ0·K·log2(m).
	// Defaults to 4. Larger values use more space and lower the failure
	// probability; the paper only requires "a large enough constant".
	Kappa int

	// K is the number of samples to support without replacement
	// (Section 2.3): the accept-set threshold is scaled by K so that with
	// high probability |Sacc| ≥ K at all times. Defaults to 1.
	K int

	// Seed drives all randomness: grid shift, hash function, query-time
	// sampling. Two samplers with equal Options behave identically.
	Seed uint64

	// Hash selects the hash family. Defaults to HashKWise.
	Hash HashKind

	// HighDim, when true, uses the Section 4 parameters: grid side d·α
	// (valid for (α,β)-sparse data with β > d^1.5·α). When false the grid
	// side is α/2, the Section 2.1 constant-dimension setting.
	HighDim bool

	// GridSide overrides the grid side length when positive; zero selects
	// the mode default described under HighDim. The effective side must
	// be finite and at least Alpha/4 (maxAlphaPerSide).
	GridSide float64

	// RandomRepresentative, when true, augments the sampler with reservoir
	// sampling so that queries return a uniformly random point of the
	// sampled group instead of the group's fixed representative point
	// (Section 2.3, "Random Point As Group Representative").
	RandomRepresentative bool

	// Space overrides the locality structure (bucketing plus the
	// near-duplicate predicate). Nil — the default — selects the paper's
	// randomly shifted Euclidean grid derived from Alpha, Dim, GridSide
	// and Seed. Custom spaces (e.g. lsh.Angular) generalize the sampler
	// to other metrics per the paper's concluding remark, with the
	// uniformity caveats documented on the implementation; sketches with
	// a custom Space are not serializable.
	Space Space

	// gridSeed, when gridShared is set, seeds the grid shift in place of
	// Seed: the copies of an estimator stack (Copy) search one grid and
	// keep their own hash functions and RNGs. Unexported, so callers
	// cannot pick a grid apart from the root seed; the wire carries it
	// for copies only.
	gridSeed   uint64
	gridShared bool
}

// Copy returns the options of one copy in a stack of independent copies
// over o, such as the Section 5 estimators' median and average copies.
// The copy draws its hash function and query RNG from seed, like a
// sampler with Options.Seed = seed, but its grid is the one o.Seed
// derives, shared by every copy made from o; a copy of a copy keeps the
// stack's grid. So the copies of one stack search adj(p) once per point
// (SharedAdj) while their hashes stay independent. A copy merges only
// with a copy made from equal options and the same seed: any other sits
// on another hash or another grid (ErrMergeOptions).
func (o Options) Copy(seed uint64) Options {
	if !o.gridShared {
		o.gridSeed, o.gridShared = hash.NewSplitMix(o.Seed).Next(), true
	}
	o.Seed = seed
	return o
}

// SharesGrid reports whether o and p are options of copies on one grid
// (see Copy), whose adjacency lists are interchangeable: every point
// lands in the same cells under both.
func (o Options) SharesGrid(p Options) bool {
	return o.gridShared && p.gridShared && o.gridSeed == p.gridSeed &&
		o.Alpha == p.Alpha && o.Dim == p.Dim && o.GridSide == p.GridSide &&
		sameSpace(o.Space, p.Space)
}

// derive builds what a sampler derives from its seeds: the space (the
// custom Space, or the randomly shifted grid), the level sampler over the
// hash function, and the source of the query RNG, which reseed restores.
// Options.Seed seeds all of them, except that a copy's grid comes from
// its stack's root seed (Copy). A copy therefore draws the same hash and
// RNG as a sampler seeded like it.
func (o Options) derive() (Space, *hash.LevelSampler, *rand.PCG) {
	gridSeed, hashSeed, rngSeed1, rngSeed2 := o.seeds()
	if o.gridShared {
		gridSeed = o.gridSeed
	}
	spc := o.Space
	if spc == nil {
		spc = NewEuclideanSpace(o.Dim, o.GridSide, o.Alpha, gridSeed)
	}
	return spc, hash.NewLevelSampler(o.newHash(hashSeed)), rand.NewPCG(rngSeed1, rngSeed2)
}

// seeds returns the grid, hash and two query-RNG seeds Options.Seed
// derives, in that order.
func (o Options) seeds() (gridSeed, hashSeed, rngSeed1, rngSeed2 uint64) {
	sm := hash.NewSplitMix(o.Seed)
	return sm.Next(), sm.Next(), sm.Next(), sm.Next()
}

// reseed restores src, a query RNG source derive built, to the state
// derive gave it: the sampler's query randomness starts over, in place.
func (o Options) reseed(src *rand.PCG) {
	_, _, rngSeed1, rngSeed2 := o.seeds()
	src.Seed(rngSeed1, rngSeed2)
}

// Bounds on Options, checked by normalize. Every constructor and every
// decoder goes through normalize, so these also bound what a crafted blob
// can make a decoder allocate or enumerate: maxDim caps the per-point
// allocations, and maxAlphaPerSide caps ⌈α/side⌉, the per-dimension
// offset range of the adjacency search. They admit every configuration in
// this repository: dimensions up to 20 for the datasets and 32 for the
// angular-LSH example, and grid sides α/2, d·α and the ablation's
// 0.25·d·α.
const (
	maxDim          = 64
	maxAlphaPerSide = 4
)

// normalize validates opts and fills defaults, returning the effective
// options. It is called by every constructor in this package.
func (o Options) normalize() (Options, error) {
	if !(o.Alpha > 0) || math.IsInf(o.Alpha, 1) || math.IsNaN(o.Alpha) {
		return o, fmt.Errorf("core: Alpha must be a positive finite number, got %g", o.Alpha)
	}
	if o.Dim < 1 || o.Dim > maxDim {
		return o, fmt.Errorf("core: Dim must be in [1, %d], got %d", maxDim, o.Dim)
	}
	if o.StreamBound == 0 {
		o.StreamBound = 1 << 20
	}
	if o.StreamBound < 2 {
		return o, fmt.Errorf("core: StreamBound must be ≥ 2, got %d", o.StreamBound)
	}
	if o.Kappa == 0 {
		o.Kappa = 4
	}
	if o.Kappa < 1 {
		return o, fmt.Errorf("core: Kappa must be ≥ 1, got %d", o.Kappa)
	}
	if o.K == 0 {
		o.K = 1
	}
	if o.K < 1 {
		return o, fmt.Errorf("core: K must be ≥ 1, got %d", o.K)
	}
	if o.GridSide < 0 || math.IsNaN(o.GridSide) {
		return o, fmt.Errorf("core: GridSide must be ≥ 0, got %g", o.GridSide)
	}
	switch o.Hash {
	case HashKWise, HashPRF:
	default:
		return o, fmt.Errorf("core: unknown hash kind %d", int(o.Hash))
	}
	if o.GridSide == 0 {
		if o.HighDim {
			o.GridSide = float64(o.Dim) * o.Alpha
		} else {
			o.GridSide = o.Alpha / 2
		}
	}
	// An infinite side (given, or d·α overflowing) turns the grid shift
	// into NaN, which defeats the adjacency pruning like a NaN coordinate.
	if math.IsInf(o.GridSide, 1) || o.Alpha/o.GridSide > maxAlphaPerSide {
		return o, fmt.Errorf("core: GridSide must be finite and ≥ Alpha/%d, got %g", maxAlphaPerSide, o.GridSide)
	}
	return o, nil
}

// logM returns ⌈log2 StreamBound⌉, the log m factor in thresholds.
func (o Options) logM() int {
	return bits.Len(uint(o.StreamBound - 1))
}

// acceptThreshold is the κ0·K·log m bound on |Sacc| that triggers a rate
// doubling in Algorithm 1 and a Split cascade in Algorithm 3.
func (o Options) acceptThreshold() int {
	t := o.Kappa * o.K * o.logM()
	if t < 1 {
		t = 1
	}
	return t
}

// newHash builds the configured hash function. The independence of the
// k-wise family is 2·⌈log2 m⌉ + 2, the Θ(log m) the paper's analysis uses.
func (o Options) newHash(seed uint64) hash.Func {
	switch o.Hash {
	case HashPRF:
		return hash.NewPRF(seed)
	default:
		return hash.NewKWise(2*o.logM()+2, seed)
	}
}
