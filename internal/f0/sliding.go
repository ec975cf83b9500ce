package f0

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hash"
	"repro/internal/window"
)

// winPhi is the bias-correction constant of the sliding-window estimator,
// playing the role of the paper's φ ("a universal constant to correct the
// bias"). In this implementation the highest non-empty accept level c obeys
// #groups ≈ threshold·2^c, because level c only becomes populated once
// ≈ threshold·2^c groups have cascaded through the Split promotions; φ was
// calibrated empirically over windows of 8–1024 groups (measured ratios
// 0.83–1.00). docs/f0-accuracy.md records the estimator's error and its
// mean estimate/truth ratio on every dataset with this φ.
const winPhi = 0.91

// WindowEstimator approximates the robust F0 of the current sliding
// window, following Section 5: run Θ(1/ε²) independent copies of the
// hierarchical window sampler, observe in each the largest level whose
// accept set is non-empty, average those levels into ℓ̄, and return
// φ·T·2^ℓ̄ where T is the per-level accept threshold. (The paper's text
// writes φ·2^ℓ̄; with per-level capacity T the threshold factor is needed
// for the estimate to be in the right unit — see winPhi.)
//
// The copies' hash functions are independent; they share one grid
// (core.Options.Copy), so each in-window point is searched once for all
// of them (see docs/engine.md, "One grid for an estimator's copies").
type WindowEstimator struct {
	copies []*core.WindowSampler

	adj      core.SharedAdj // the current batch's adjacency lists
	one      [1]geom.Point  // Process's and ProcessAt's one-point batch
	oneStamp [1]int64
}

// NewWindowEstimator builds c = ⌈kappa/ε²⌉ copies (kappa 0 selects the
// default 2). Every copy gets an independent seed derived from opts.Seed,
// and the grid opts.Seed derives.
func NewWindowEstimator(opts core.Options, win window.Window, eps float64, kappa float64) (*WindowEstimator, error) {
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("f0: epsilon must be in (0,1], got %g", eps)
	}
	if kappa == 0 {
		kappa = 2
	}
	if kappa < 0 {
		return nil, fmt.Errorf("f0: kappa must be positive, got %g", kappa)
	}
	c := int(math.Ceil(kappa / (eps * eps)))
	if c < 1 {
		c = 1
	}
	sm := hash.NewSplitMix(opts.Seed ^ 0x7377663065)
	copies := make([]*core.WindowSampler, c)
	for i := range copies {
		ws, err := core.NewWindowSampler(opts.Copy(sm.Next()), win)
		if err != nil {
			return nil, err
		}
		copies[i] = ws
	}
	return &WindowEstimator{copies: copies}, nil
}

// Copies returns the number of independent window samplers.
func (we *WindowEstimator) Copies() int { return len(we.copies) }

// Now returns the latest stamp seen — the window's right edge (every
// copy observes the same stream, so copy 0's clock is the clock).
func (we *WindowEstimator) Now() int64 { return we.copies[0].Now() }

// Process feeds the next point (sequence-based windows), as a batch of
// one.
func (we *WindowEstimator) Process(p geom.Point) {
	we.one[0] = p
	we.ProcessStampedBatch(we.one[:], nil)
	we.one[0] = nil
}

// ProcessAt feeds the next point with an explicit stamp (time-based
// windows), as a batch of one. Stamps may arrive late (see
// core.WindowSampler.ProcessAt).
func (we *WindowEstimator) ProcessAt(p geom.Point, stamp int64) {
	we.one[0], we.oneStamp[0] = p, stamp
	we.ProcessStampedBatch(we.one[:], we.oneStamp[:])
	we.one[0] = nil
}

// Reset restores the state NewWindowEstimator builds, copy by copy,
// keeping each copy's memory (core.WindowSampler.Reset).
func (we *WindowEstimator) Reset() {
	for _, c := range we.copies {
		c.Reset()
	}
}

// Merge combines another WindowEstimator built with the same options,
// window, and root seed into we, copy by copy — the sharded/distributed
// setting for time-based windows. Sequence windows are rejected with
// core.ErrWindowMerge (arrival indices do not compose).
func (we *WindowEstimator) Merge(o *WindowEstimator) error {
	if len(we.copies) != len(o.copies) {
		return fmt.Errorf("f0: merging window estimators with different copy counts (%d vs %d)",
			len(we.copies), len(o.copies))
	}
	for i := range we.copies {
		if err := we.copies[i].MergeFrom(o.copies[i]); err != nil {
			return fmt.Errorf("f0: merging window copy %d: %w", i, err)
		}
	}
	return nil
}

// Estimate returns φ·T·2^ℓ̄ where ℓ̄ averages, over copies, the largest
// level with a non-empty accept set and T is the per-level accept
// threshold.
func (we *WindowEstimator) Estimate() (float64, error) {
	var sum float64
	var seen int
	for _, c := range we.copies {
		if l := c.MaxNonEmptyLevel(); l >= 0 {
			sum += float64(l)
			seen++
		}
	}
	if seen == 0 {
		return 0, ErrNoEstimate
	}
	lbar := sum / float64(seen)
	t := float64(we.copies[0].AcceptThreshold())
	return winPhi * t * math.Pow(2, lbar), nil
}

// SpaceWords sums live words over copies.
func (we *WindowEstimator) SpaceWords() int {
	total := 0
	for _, c := range we.copies {
		total += c.SpaceWords()
	}
	return total
}
