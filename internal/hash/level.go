package hash

import (
	"fmt"
	"math/bits"
)

// LevelSampler implements the subsampling primitive of the paper:
// given a hash function h and a rate parameter R = 2^k, a key x is sampled
// iff h_R(x) := h(x) mod R == 0, i.e. with probability 1/R.
//
// Because R is always a power of two and h_R takes the low bits of a fixed
// underlying value h(x), the sampled sets are nested (the paper's Fact 1(b)):
//
//	{x : h_2R(x) = 0} ⊆ {x : h_R(x) = 0}
//
// This nesting is what lets Algorithm 1 double R and *re-filter* its stored
// state without ever needing to resurrect a previously ignored group, and
// what lets Algorithm 3's Split promote points from level ℓ to ℓ+1.
type LevelSampler struct {
	fn Func
}

// NewLevelSampler wraps a hash function in the level-sampling interface.
func NewLevelSampler(fn Func) *LevelSampler {
	if fn == nil {
		panic("hash: nil hash function")
	}
	return &LevelSampler{fn: fn}
}

// SampledAt reports whether key x is sampled at rate 1/R, i.e. whether
// h(x) mod R == 0. R must be a power of two (including 1, which samples
// everything).
func (ls *LevelSampler) SampledAt(x, r uint64) bool {
	if r == 0 || r&(r-1) != 0 {
		panic(fmt.Sprintf("hash: sample rate reciprocal must be a power of two, got %d", r))
	}
	return ls.fn.Hash(x)&(r-1) == 0
}

// Level returns the highest level ℓ such that x is sampled at rate 1/2^ℓ,
// capped at maxLevel. Equivalently it counts trailing zero bits of h(x).
// This is the FM-sketch style "level" of a key and is used by the sliding
// window F0 estimator.
func (ls *LevelSampler) Level(x uint64, maxLevel int) int {
	return min(bits.TrailingZeros64(ls.fn.Hash(x)), maxLevel)
}

// Func exposes the wrapped hash function (used by tests and by components
// that need raw hash values, e.g. min-rank baselines).
func (ls *LevelSampler) Func() Func { return ls.fn }
