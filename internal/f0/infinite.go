// Package f0 implements the paper's Section 5: robust distinct-element
// (F0) estimation built on the robust ℓ0-sampling machinery, for both the
// infinite window (a Bar-Yossef-style |Sacc|·R estimator) and sliding
// windows (an FM-style max-level estimator over independent copies), with
// median-of-copies boosting.
package f0

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hash"
)

// ErrNoEstimate is returned when an estimator has seen no groups at all.
var ErrNoEstimate = errors.New("f0: no data to estimate from")

// InfiniteEstimator approximates the robust F0 of an infinite-window
// stream: the number of groups under the distance threshold α. Following
// Section 5 it is Algorithm 1 with the accept-set threshold κ0·log m
// replaced by κB/ε²; the estimate is |Sacc| · R. A single copy achieves a
// (1+ε)-approximation with constant probability; use Median for high
// probability.
type InfiniteEstimator struct {
	s   *core.Sampler
	eps float64
}

// NewInfiniteEstimator builds a single-copy estimator. Epsilon must be in
// (0, 1]; kappaB is the constant κB (0 selects the default 8).
func NewInfiniteEstimator(opts core.Options, eps float64, kappaB int) (*InfiniteEstimator, error) {
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("f0: epsilon must be in (0,1], got %g", eps)
	}
	if kappaB == 0 {
		kappaB = 8
	}
	if kappaB < 1 {
		return nil, fmt.Errorf("f0: kappaB must be ≥ 1, got %d", kappaB)
	}
	// Algorithm 1's threshold is Kappa·K·log2(m); pick Kappa and a stream
	// bound so that the product is κB/ε², emulating the Section 5 swap of
	// thresholds without a second code path.
	target := int(math.Ceil(float64(kappaB) / (eps * eps)))
	o := opts
	o.K = 1
	o.StreamBound = 4 // log2 = 2
	o.Kappa = (target + 1) / 2
	s, err := core.NewSampler(o)
	if err != nil {
		return nil, err
	}
	return &InfiniteEstimator{s: s, eps: eps}, nil
}

// Process feeds the next stream point.
func (e *InfiniteEstimator) Process(p geom.Point) { e.s.Process(p) }

// Reset restores the state NewInfiniteEstimator builds, keeping the
// sampler's memory (core.Sampler.Reset).
func (e *InfiniteEstimator) Reset() { e.s.Reset() }

// Estimate returns |Sacc| · R, the Section 5 estimator of the number of
// groups seen so far.
func (e *InfiniteEstimator) Estimate() (float64, error) {
	acc := e.s.AcceptSize()
	if acc == 0 {
		return 0, ErrNoEstimate
	}
	return float64(acc) * float64(e.s.R()), nil
}

// SpaceWords reports the current sketch words.
func (e *InfiniteEstimator) SpaceWords() int { return e.s.SpaceWords() }

// PeakSpaceWords reports the peak sketch words over the stream.
func (e *InfiniteEstimator) PeakSpaceWords() int { return e.s.PeakSpaceWords() }

// Median runs several independent copies of an estimator and returns the
// median estimate, boosting constant success probability to high
// probability (Section 5 runs Θ(log m) copies). The copies' hash
// functions are independent; they share one grid (core.Options.Copy), so
// each point is searched once for all of them (see docs/engine.md, "One
// grid for an estimator's copies").
type Median struct {
	copies []*InfiniteEstimator

	adj core.SharedAdj // the current batch's adjacency lists
	one [1]geom.Point  // Process's one-point batch
}

// NewMedian builds c independent InfiniteEstimator copies with seeds
// derived from opts.Seed, on the grid opts.Seed derives.
func NewMedian(opts core.Options, eps float64, kappaB, c int) (*Median, error) {
	if c < 1 {
		c = 1
	}
	sm := hash.NewSplitMix(opts.Seed ^ 0x663066306630)
	copies := make([]*InfiniteEstimator, c)
	for i := range copies {
		est, err := NewInfiniteEstimator(opts.Copy(sm.Next()), eps, kappaB)
		if err != nil {
			return nil, err
		}
		copies[i] = est
	}
	return &Median{copies: copies}, nil
}

// Process feeds the point to every copy, as a batch of one.
func (m *Median) Process(p geom.Point) {
	m.one[0] = p
	m.ProcessBatch(m.one[:])
	m.one[0] = nil
}

// Reset restores the state NewMedian builds, copy by copy, keeping each
// copy's memory (core.Sampler.Reset).
func (m *Median) Reset() {
	for _, c := range m.copies {
		c.Reset()
	}
}

// Estimate returns the median of the per-copy estimates.
func (m *Median) Estimate() (float64, error) {
	ests := make([]float64, 0, len(m.copies))
	for _, c := range m.copies {
		if v, err := c.Estimate(); err == nil {
			ests = append(ests, v)
		}
	}
	if len(ests) == 0 {
		return 0, ErrNoEstimate
	}
	sort.Float64s(ests)
	mid := len(ests) / 2
	if len(ests)%2 == 1 {
		return ests[mid], nil
	}
	return (ests[mid-1] + ests[mid]) / 2, nil
}

// SpaceWords sums live words over copies.
func (m *Median) SpaceWords() int {
	total := 0
	for _, c := range m.copies {
		total += c.SpaceWords()
	}
	return total
}
