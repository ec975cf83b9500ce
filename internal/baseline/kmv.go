package baseline

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/hash"
)

// KMV is the k-minimum-values F0 estimator (Bar-Yossef et al. [7]): hash
// every item to [0,1), keep the k smallest distinct hash values, and
// estimate F0 as (k−1)/v_k where v_k is the k-th smallest normalized value.
// On noisy data it counts every near-duplicate separately; the experiments
// use it to show what "standard F0" reports on noisy streams.
type KMV struct {
	h    hash.Func
	k    int
	vals []uint64 // sorted ascending, at most k distinct hash values
	n    int64
}

// NewKMV builds a KMV sketch of size k ≥ 2.
func NewKMV(k int, seed uint64) *KMV {
	if k < 2 {
		k = 2
	}
	return &KMV{h: hash.NewPRF(seed), k: k}
}

// Process feeds the next point.
func (s *KMV) Process(p geom.Point) { s.ProcessKey(PointKey(p)) }

// ProcessKey feeds a raw 64-bit key (for non-geometric streams).
func (s *KMV) ProcessKey(key uint64) {
	s.n++
	v := s.h.Hash(key)
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
	if i < len(s.vals) && s.vals[i] == v {
		return // duplicate key
	}
	if len(s.vals) == s.k && i == s.k {
		return // larger than everything retained
	}
	s.vals = append(s.vals, 0)
	copy(s.vals[i+1:], s.vals[i:])
	s.vals[i] = v
	if len(s.vals) > s.k {
		s.vals = s.vals[:s.k]
	}
}

// Estimate returns the distinct-key estimate. With fewer than k distinct
// values the count is exact.
func (s *KMV) Estimate() float64 {
	if len(s.vals) < s.k {
		return float64(len(s.vals))
	}
	// Hash values are uniform on [0, 2^61−1); normalize the k-th smallest.
	const fieldMax = float64((uint64(1) << 61) - 1)
	vk := float64(s.vals[s.k-1]) / fieldMax
	if vk == 0 {
		return float64(s.k)
	}
	return float64(s.k-1) / vk
}
