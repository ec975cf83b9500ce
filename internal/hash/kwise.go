// Package hash implements the hash functions required by the robust
// ℓ0-sampling algorithms: a genuinely k-wise independent polynomial family
// over the Mersenne prime field GF(2^61−1), a fast seeded PRF (SplitMix64)
// standing in for the paper's "fully random hash function", and the level
// sampler h_R(x) = h(x) mod R used to subsample grid cells at rate 1/R.
//
// The paper (Section 1, Preliminaries) assumes fully random hashing for the
// analysis and notes that Θ(log m)-wise independence suffices by
// Chernoff–Hoeffding bounds for limited independence; both options are
// provided here and are interchangeable behind the Func interface.
package hash

import (
	"fmt"
	"math/bits"
)

// mersenne61 is the Mersenne prime 2^61 − 1 used as the field modulus.
// Multiplication of two residues fits in 128 bits (via bits.Mul64) and
// reduction is two shifts and adds, giving a fast exact field arithmetic.
const mersenne61 = (1 << 61) - 1

// Func is a hash function from 64-bit keys to 64-bit values with output
// (at least approximately) uniform on [0, 2^61−1). Implementations must be
// deterministic for a fixed construction.
type Func interface {
	// Hash maps a 64-bit key to a pseudo-random 64-bit value.
	Hash(x uint64) uint64
}

// KWise is a k-wise independent hash function, implemented as a random
// degree-(k−1) polynomial over GF(2^61−1):
//
//	h(x) = a_{k-1} x^{k-1} + ... + a_1 x + a_0  (mod 2^61−1)
//
// For any k distinct keys the outputs are fully independent and uniform on
// the field, which is the classic Wegman–Carter construction. Keys are first
// reduced mod 2^61−1; since the cell keys hashed by this repository are
// already well mixed 64-bit values, the reduction loses no independence in
// practice (and loses none in theory for keys below 2^61).
type KWise struct {
	coef []uint64 // coef[i] is the coefficient of x^i, each in [0, p)
}

// NewKWise constructs a k-wise independent hash function with the given
// independence k ≥ 1, drawing coefficients from the given seeded PRF stream.
// The leading coefficient is forced non-zero so the polynomial has exact
// degree k−1 (this only strengthens the distribution of the family).
func NewKWise(k int, seed uint64) *KWise {
	if k < 1 {
		panic(fmt.Sprintf("hash: independence k must be ≥ 1, got %d", k))
	}
	sm := NewSplitMix(seed)
	coef := make([]uint64, k)
	for i := range coef {
		coef[i] = sm.Next() % mersenne61
	}
	if k > 1 && coef[k-1] == 0 {
		coef[k-1] = 1
	}
	return &KWise{coef: coef}
}

// K returns the independence of the family (the number of coefficients).
func (h *KWise) K() int { return len(h.coef) }

// Hash evaluates the polynomial at x by Horner's rule in GF(2^61−1).
//
// The accumulator stays below 2^62 but is not kept canonical: each step
// folds the 128-bit product acc·x at bit 61 (2^61 ≡ 1), adds the next
// coefficient and folds the sum once more, with no conditional
// subtraction; one modMersenne at the end makes the result canonical.
// With acc < 2^62 and x, a_i < 2^61 the product is below 2^123, so the
// folded sum is below 2^61 + 2^62 + 2^61 = 2^63 and its fold below
// 2^61 + 4. Every step keeps the residue the reduce-every-step Horner
// rule computes, so the canonical output is bit-identical to that rule's
// (TestKWiseMatchesCanonicalHorner pins it).
func (h *KWise) Hash(x uint64) uint64 {
	xr := modMersenne(x)
	k := len(h.coef)
	acc := h.coef[k-1]
	for i := k - 2; i >= 0; i-- {
		hi, lo := bits.Mul64(acc, xr)
		// acc·x = hi·2^64 + lo, and (acc·x) >> 61 = hi<<3 | lo>>61.
		t := (lo & mersenne61) + (hi<<3 | lo>>61) + h.coef[i]
		acc = (t & mersenne61) + (t >> 61)
	}
	return modMersenne(acc)
}

// modMersenne reduces any uint64 modulo 2^61−1.
func modMersenne(x uint64) uint64 {
	x = (x & mersenne61) + (x >> 61)
	if x >= mersenne61 {
		x -= mersenne61
	}
	return x
}

// SplitMix is the SplitMix64 PRF/PRNG. It doubles as a seed expander for
// KWise and as the "fully random" hash stand-in (see PRF).
type SplitMix struct{ state uint64 }

// NewSplitMix returns a SplitMix64 stream seeded with seed.
func NewSplitMix(seed uint64) *SplitMix { return &SplitMix{state: seed} }

// Next advances the stream and returns the next 64-bit value.
func (s *SplitMix) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}

// Mix64 is the SplitMix64 finalizer: a fast bijective mixer on 64 bits with
// excellent avalanche behaviour. It is used both by the PRF hash and to
// derive cell keys from integer grid coordinates.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PRF is a keyed pseudo-random function standing in for the paper's fully
// random hash function: Hash(x) = Mix64(Mix64(x ^ key1) + key2), truncated
// into the field range so PRF and KWise are drop-in interchangeable.
type PRF struct {
	key1, key2 uint64
}

// NewPRF derives a PRF from the seed.
func NewPRF(seed uint64) *PRF {
	sm := NewSplitMix(seed)
	return &PRF{key1: sm.Next(), key2: sm.Next()}
}

// Hash evaluates the PRF at x.
func (f *PRF) Hash(x uint64) uint64 {
	return Mix64(Mix64(x^f.key1)+f.key2) % mersenne61
}
