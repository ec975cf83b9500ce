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

// Hash evaluates the polynomial at x in GF(2^61−1).
//
// Accumulators stay below 2^62 but are not kept canonical: each Horner
// step folds the 128-bit product acc·y at bit 61 (2^61 ≡ 1), adds the
// next coefficient and folds the sum once more, with no conditional
// subtraction; one modMersenne at the end makes the result canonical.
// With acc < 2^62, y < 2^61 and an addend below 2^61 + 4 the product is
// below 2^123, so the folded sum is below 2^61 + 2^62 + 2^61 + 4 < 2^64
// and its fold below 2^61 + 4.
//
// For k < 8 that is Horner's rule in x: at k = 6, the f0 copies'
// independence, the four-lane evaluation below measured 36 ns against
// the single chain's 22 ns (BenchmarkHash/kwise6, medians of 6
// alternations, GOMAXPROCS=1), its x⁴ and combining steps outweighing
// the overlap. From k = 8 on, a single chain would spend most of its time
// waiting on the previous multiply, so the polynomial is split by
// exponent mod 4,
//
//	h(x) = P0(x⁴) + x·P1(x⁴) + x²·P2(x⁴) + x³·P3(x⁴),
//
// and the four chains Pj run interleaved by Horner's rule in x⁴; three
// steps in x, ((P3·x + P2)·x + P1)·x + P0, then combine them. Every step
// keeps the residue of the polynomial's value, so the canonical output is
// bit-identical to the reduce-every-step Horner rule
// (TestKWiseMatchesCanonicalHorner pins it for k = 1…64).
func (h *KWise) Hash(x uint64) uint64 {
	xr := modMersenne(x)
	c := h.coef
	k := len(c)
	if k < 8 {
		acc := c[k-1]
		for i := k - 2; i >= 0; i-- {
			acc = hornerStep(acc, xr, c[i])
		}
		return modMersenne(acc)
	}
	x4 := mulMersenne(xr, xr)
	x4 = mulMersenne(x4, x4)
	// The top k mod 4 coefficients start their chains; the chains of the
	// exponents above k−1 start at zero.
	top := k &^ 3
	var a [4]uint64
	copy(a[:], c[top:])
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for i := top - 4; i >= 0; i -= 4 {
		b := c[i : i+4 : i+4]
		a0 = hornerStep(a0, x4, b[0])
		a1 = hornerStep(a1, x4, b[1])
		a2 = hornerStep(a2, x4, b[2])
		a3 = hornerStep(a3, x4, b[3])
	}
	acc := hornerStep(a3, xr, a2)
	acc = hornerStep(acc, xr, a1)
	acc = hornerStep(acc, xr, a0)
	return modMersenne(acc)
}

// hornerStep returns acc·y + a folded once at bit 61: congruent to it
// modulo 2^61−1 and below 2^61 + 4, for acc < 2^62, y < 2^61 and
// a < 2^61 + 4.
func hornerStep(acc, y, a uint64) uint64 {
	hi, lo := bits.Mul64(acc, y)
	// acc·y = hi·2^64 + lo, and (acc·y) >> 61 = hi<<3 | lo>>61.
	t := (lo & mersenne61) + (hi<<3 | lo>>61) + a
	return (t & mersenne61) + (t >> 61)
}

// mulMersenne returns a·b mod 2^61−1, canonical, for a, b < 2^61.
func mulMersenne(a, b uint64) uint64 {
	return modMersenne(hornerStep(a, b, 0))
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
