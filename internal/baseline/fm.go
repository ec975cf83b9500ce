package baseline

import (
	"math"

	"repro/internal/geom"
	"repro/internal/hash"
)

// FM is the Flajolet–Martin probabilistic counter [23]: a bitmap of levels
// where level ℓ is set when some item's hash has exactly ℓ trailing zero
// bits. The estimate is 2^z/φ where z is the lowest unset level and
// φ ≈ 0.77351 is the FM bias constant. Averaging over copies tightens the
// variance; see FMGroup.
type FM struct {
	h      hash.Func
	bitmap uint64
}

// fmPhi is the Flajolet–Martin correction factor.
const fmPhi = 0.77351

// NewFM builds one FM counter.
func NewFM(seed uint64) *FM { return &FM{h: hash.NewPRF(seed)} }

// Process feeds the next point.
func (f *FM) Process(p geom.Point) { f.ProcessKey(PointKey(p)) }

// ProcessKey feeds a raw key.
func (f *FM) ProcessKey(key uint64) {
	h := f.h.Hash(key)
	// Position of the lowest set bit = number of trailing zeros.
	l := 0
	for l < 60 && h&1 == 0 {
		h >>= 1
		l++
	}
	f.bitmap |= 1 << uint(l)
}

// Z returns the index of the lowest zero bit of the bitmap.
func (f *FM) Z() int {
	z := 0
	b := f.bitmap
	for b&1 == 1 {
		b >>= 1
		z++
	}
	return z
}

// Estimate returns 2^Z/φ.
func (f *FM) Estimate() float64 { return math.Pow(2, float64(f.Z())) / fmPhi }

// FMGroup averages the Z observable over c independent FM counters
// (stochastic averaging), the standard variance reduction.
type FMGroup struct {
	copies []*FM
}

// NewFMGroup builds c independent counters.
func NewFMGroup(c int, seed uint64) *FMGroup {
	if c < 1 {
		c = 1
	}
	sm := hash.NewSplitMix(seed)
	copies := make([]*FM, c)
	for i := range copies {
		copies[i] = NewFM(sm.Next())
	}
	return &FMGroup{copies: copies}
}

// Process feeds the next point to every copy.
func (g *FMGroup) Process(p geom.Point) {
	key := PointKey(p)
	for _, f := range g.copies {
		f.ProcessKey(key)
	}
}

// Estimate returns 2^z̄/φ with z̄ the average lowest-zero index.
func (g *FMGroup) Estimate() float64 {
	var sum float64
	for _, f := range g.copies {
		sum += float64(f.Z())
	}
	zbar := sum / float64(len(g.copies))
	return math.Pow(2, zbar) / fmPhi
}

// HyperLogLog is the Flajolet–Fusy–Gandouet–Meunier cardinality estimator
// [21]: 2^b registers each remembering the maximum leading-zero rank of the
// hashes routed to them, combined by the bias-corrected harmonic mean, with
// the standard linear-counting correction for small cardinalities.
type HyperLogLog struct {
	h    hash.Func
	b    uint // register index bits; m = 2^b registers
	regs []uint8
}

// NewHyperLogLog builds an HLL with 2^b registers, 4 ≤ b ≤ 16.
func NewHyperLogLog(b uint, seed uint64) *HyperLogLog {
	if b < 4 {
		b = 4
	}
	if b > 16 {
		b = 16
	}
	return &HyperLogLog{h: hash.NewPRF(seed), b: b, regs: make([]uint8, 1<<b)}
}

// Process feeds the next point.
func (h *HyperLogLog) Process(p geom.Point) { h.ProcessKey(PointKey(p)) }

// ProcessKey feeds a raw key.
func (h *HyperLogLog) ProcessKey(key uint64) {
	x := h.h.Hash(key)
	idx := x & ((1 << h.b) - 1)
	rest := x >> h.b
	// rank = position of the first set bit in the remaining 61−b bits, 1-based.
	var rank uint8 = 1
	maxRank := uint8(61 - h.b + 1)
	for rank < maxRank && rest&1 == 0 {
		rest >>= 1
		rank++
	}
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Estimate returns the HLL cardinality estimate.
func (h *HyperLogLog) Estimate() float64 {
	m := float64(len(h.regs))
	var alpha float64
	switch len(h.regs) {
	case 16:
		alpha = 0.673
	case 32:
		alpha = 0.697
	case 64:
		alpha = 0.709
	default:
		alpha = 0.7213 / (1 + 1.079/m)
	}
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// LinearCounting is the simplest F0 estimator: a bitmap of size m; the
// estimate is m·ln(m/zeros). Accurate while the bitmap is sparse.
type LinearCounting struct {
	h    hash.Func
	bits []uint64
	m    uint64
}

// NewLinearCounting builds a bitmap with m bits (rounded up to a multiple
// of 64, minimum 64).
func NewLinearCounting(m int, seed uint64) *LinearCounting {
	if m < 64 {
		m = 64
	}
	words := (m + 63) / 64
	return &LinearCounting{h: hash.NewPRF(seed), bits: make([]uint64, words), m: uint64(words * 64)}
}

// Process feeds the next point.
func (lc *LinearCounting) Process(p geom.Point) { lc.ProcessKey(PointKey(p)) }

// ProcessKey feeds a raw key.
func (lc *LinearCounting) ProcessKey(key uint64) {
	i := lc.h.Hash(key) % lc.m
	lc.bits[i/64] |= 1 << (i % 64)
}

// Estimate returns m·ln(m/zeros); if the bitmap is full it returns m.
func (lc *LinearCounting) Estimate() float64 {
	var ones int
	for _, w := range lc.bits {
		for ; w != 0; w &= w - 1 {
			ones++
		}
	}
	zeros := float64(lc.m) - float64(ones)
	if zeros == 0 {
		return float64(lc.m)
	}
	return float64(lc.m) * math.Log(float64(lc.m)/zeros)
}
