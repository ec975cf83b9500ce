package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of samples:
// the smallest sample with at least q·n samples at or below it. It sorts
// samples in place; an empty slice gives NaN.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	slices.Sort(samples)
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[min(max(i, 0), len(samples)-1)]
}

// median returns the middle of v (the mean of the two middle values for
// even lengths) without reordering v; an empty slice gives NaN.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// bound is how far a metric may worsen before a change counts as a
// regression: by share of the baseline, or by floor in the metric's own
// unit, whichever allows more.
type bound struct {
	better string // "lower" or "higher"
	share  float64
	floor  float64
}

// allowed is how much a metric may worsen from base.
func (bd bound) allowed(base float64) float64 { return max(bd.share*math.Abs(base), bd.floor) }

// worsening returns by how much cur is worse than base in the metric's
// direction (negative when it is better) and whether that exceeds the
// bound.
func (bd bound) worsening(base, cur float64) (float64, bool) {
	d := cur - base
	if bd.better == "higher" {
		d = -d
	}
	return d, d > bd.allowed(base)
}
