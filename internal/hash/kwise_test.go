package hash

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestModMersenne(t *testing.T) {
	cases := []struct {
		in, want uint64
	}{
		{0, 0},
		{1, 1},
		{mersenne61 - 1, mersenne61 - 1},
		{mersenne61, 0},
		{mersenne61 + 1, 1},
		{1<<64 - 1, (1<<64 - 1) % mersenne61},
	}
	for _, c := range cases {
		if got := modMersenne(c.in); got != c.want {
			t.Errorf("modMersenne(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestModMersenneMatchesBigMod(t *testing.T) {
	f := func(x uint64) bool {
		return modMersenne(x) == x%mersenne61
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulModMatchesBigArithmetic(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= mersenne61
		b %= mersenne61
		hi, lo := bits.Mul64(a, b)
		// Reference: reduce the 128-bit product by long division.
		want := mod128(hi, lo)
		return mulMod(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// mulMod returns a·b mod 2^61−1 using 128-bit intermediate arithmetic:
// the canonical Horner multiply the lazy KWise.Hash is pinned to.
func mulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a·b = hi·2^64 + lo. With p = 2^61−1 we have 2^61 ≡ 1, hence
	// 2^64 ≡ 8. Split lo into low 61 bits and the top 3 bits.
	res := (lo & mersenne61) + (lo >> 61) + hi*8
	return modMersenne(res)
}

// addMod returns a+b mod 2^61−1 for a,b < 2^61.
func addMod(a, b uint64) uint64 {
	return modMersenne(a + b)
}

// referenceHash is KWise.Hash by the canonical Horner rule, reducing
// after every multiply and every add.
func referenceHash(coef []uint64, x uint64) uint64 {
	xr := modMersenne(x)
	acc := uint64(0)
	for i := len(coef) - 1; i >= 0; i-- {
		acc = addMod(mulMod(acc, xr), coef[i])
	}
	return acc
}

// TestKWiseMatchesCanonicalHorner pins the lazily reduced KWise.Hash to
// the canonical Horner rule, bit for bit: for every independence
// k = 1…64, on seeded coefficients and on coefficients all p−1 (which
// maximize every intermediate sum), at the edge keys 0, p−1, p and
// 2^64−1 and at random keys.
func TestKWiseMatchesCanonicalHorner(t *testing.T) {
	keys := []uint64{0, 1, mersenne61 - 1, mersenne61, mersenne61 + 1, 1<<61 + 5, 1<<64 - 1}
	sm := NewSplitMix(77)
	for range 64 {
		keys = append(keys, sm.Next())
	}
	for k := 1; k <= 64; k++ {
		top := &KWise{coef: make([]uint64, k)}
		for i := range top.coef {
			top.coef[i] = mersenne61 - 1
		}
		for _, h := range []*KWise{NewKWise(k, uint64(k)), top} {
			for _, x := range keys {
				if got, want := h.Hash(x), referenceHash(h.coef, x); got != want {
					t.Fatalf("k=%d coef[0]=%d: Hash(%d) = %d, canonical Horner %d", k, h.coef[0], x, got, want)
				}
			}
		}
	}
}

// mod128 reduces a 128-bit value modulo 2^61−1 by repeated splitting,
// independent of the production implementation.
func mod128(hi, lo uint64) uint64 {
	// value = hi·2^64 + lo; 2^64 mod p = 8.
	acc := (hi % mersenne61)
	// multiply acc by 8 mod p safely
	for i := 0; i < 3; i++ {
		acc <<= 1
		if acc >= mersenne61 {
			acc -= mersenne61
		}
	}
	acc += lo % mersenne61
	if acc >= mersenne61 {
		acc -= mersenne61
	}
	return acc
}

func TestKWiseDeterministic(t *testing.T) {
	h1 := NewKWise(8, 42)
	h2 := NewKWise(8, 42)
	for x := uint64(0); x < 100; x++ {
		if h1.Hash(x) != h2.Hash(x) {
			t.Fatalf("same seed gives different hashes at %d", x)
		}
	}
	h3 := NewKWise(8, 43)
	same := 0
	for x := uint64(0); x < 100; x++ {
		if h1.Hash(x) == h3.Hash(x) {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("different seeds agree on %d/100 inputs", same)
	}
}

func TestKWiseRange(t *testing.T) {
	h := NewKWise(16, 7)
	for x := uint64(0); x < 1000; x++ {
		if v := h.Hash(x); v >= mersenne61 {
			t.Fatalf("Hash(%d) = %d out of field range", x, v)
		}
	}
}

func TestKWisePairwiseUniformity(t *testing.T) {
	// Over many independently seeded 2-wise functions, the low bit of h(x)
	// should be ~Bernoulli(1/2) and pairs (h(x),h(y)) nearly independent.
	const trials = 4000
	ones := 0
	both := 0
	for s := uint64(0); s < trials; s++ {
		h := NewKWise(2, s*2654435761+17)
		a := h.Hash(123) & 1
		b := h.Hash(456) & 1
		if a == 1 {
			ones++
		}
		if a == 1 && b == 1 {
			both++
		}
	}
	// E[ones] = 2000 ± ~4σ (σ≈31.6); E[both] = 1000 ± ~4σ (σ≈27.4).
	if ones < 1800 || ones > 2200 {
		t.Errorf("low bit not uniform: %d/%d ones", ones, trials)
	}
	if both < 850 || both > 1150 {
		t.Errorf("pairwise dependence: both=1 in %d/%d", both, trials)
	}
}

func TestKWiseIndependenceParameter(t *testing.T) {
	if got := NewKWise(12, 1).K(); got != 12 {
		t.Fatalf("K() = %d, want 12", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k < 1")
		}
	}()
	NewKWise(0, 1)
}

func TestPRFDeterministicAndSpread(t *testing.T) {
	f1 := NewPRF(99)
	f2 := NewPRF(99)
	seen := make(map[uint64]bool)
	for x := uint64(0); x < 1000; x++ {
		v := f1.Hash(x)
		if v != f2.Hash(x) {
			t.Fatal("PRF not deterministic")
		}
		if v >= mersenne61 {
			t.Fatalf("PRF output %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("PRF collisions: %d distinct outputs of 1000", len(seen))
	}
}

func TestSplitMixStreamDistinct(t *testing.T) {
	sm := NewSplitMix(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		v := sm.Next()
		if seen[v] {
			t.Fatalf("SplitMix repeated a value after %d draws", i)
		}
		seen[v] = true
	}
}

func TestMix64Bijectivity(t *testing.T) {
	// Mix64 is a bijection; sampled inputs must not collide.
	seen := make(map[uint64]uint64)
	for x := uint64(0); x < 5000; x++ {
		v := Mix64(x * 0x9e3779b97f4a7c15)
		if prev, ok := seen[v]; ok {
			t.Fatalf("Mix64 collision between inputs %d and %d", prev, x)
		}
		seen[v] = x
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~32 of 64 output bits on average.
	var totalFlips, samples int
	for x := uint64(1); x < 1000; x++ {
		base := Mix64(x)
		for b := uint(0); b < 64; b += 7 {
			flipped := Mix64(x ^ (1 << b))
			totalFlips += bits.OnesCount64(base ^ flipped)
			samples++
		}
	}
	avg := float64(totalFlips) / float64(samples)
	if avg < 28 || avg > 36 {
		t.Fatalf("avalanche average = %.2f bits, want ≈32", avg)
	}
}
