package experiments

import (
	"slices"
	"testing"

	"repro/internal/dataset"
)

// The experiment harness tests use small run counts — they verify the
// harness is correct and the headline *shape* of each result, not the
// paper-scale statistics (cmd/experiments regenerates those).

func seedsSpec() dataset.Spec { return dataset.Spec{Base: dataset.Seeds, Kind: dataset.DupUniform} }

func TestDistSmall(t *testing.T) {
	res, err := Dist(seedsSpec(), 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 210 || res.Runs != 300 {
		t.Fatalf("unexpected result metadata: %+v", res)
	}
	if res.Misses > 3 {
		t.Fatalf("too many empty-sketch runs: %d", res.Misses)
	}
	// With 300 runs over 210 groups the deviations are large but finite;
	// sanity-check they are computed and bounded.
	if res.StdDevNm <= 0 || res.StdDevNm > 3 {
		t.Fatalf("StdDevNm = %g out of sane band", res.StdDevNm)
	}
	if res.MaxFreq < res.MinFreq {
		t.Fatal("frequency bounds inverted")
	}
}

func TestDistUniformAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical experiment; run without -short")
	}
	// 2500 runs over the 210-group Seeds dataset. Pure multinomial noise
	// alone gives stdDevNm ≈ sqrt(n/runs) ≈ 0.29; a biased sampler would
	// exceed that clearly. (cmd/experiments -exp dist -runs 500000
	// regenerates the paper-scale numbers.)
	res, err := Dist(seedsSpec(), 2500, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.StdDevNm > 0.45 {
		t.Fatalf("StdDevNm = %g, want ≈0.29 (sampling noise) + small bias", res.StdDevNm)
	}
	if res.MaxDevNm > 1.6 {
		t.Fatalf("MaxDevNm = %g", res.MaxDevNm)
	}
}

func TestPTimeAndPSpace(t *testing.T) {
	tr, err := PTime(seedsSpec(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PerItem <= 0 {
		t.Fatal("per-item time must be positive")
	}
	sr, err := PSpace(seedsSpec(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sr.PeakWords <= 0 || sr.MaxWords < int(sr.PeakWords) {
		t.Fatalf("space result inconsistent: %+v", sr)
	}
	// Space must be far below storing the stream (~streamLen·d words).
	if sr.PeakWords > float64(sr.StreamLen) {
		t.Fatalf("peak %g words is not sublinear in stream %d", sr.PeakWords, sr.StreamLen)
	}
}

func TestBiasShowsContrast(t *testing.T) {
	// On a power-law dataset the min-rank sampler must be dramatically
	// biased toward the heavy group while the robust sampler is not. This
	// reproduces the paper's core motivation.
	res, err := Bias(dataset.Spec{Base: dataset.Seeds, Kind: dataset.DupPowerLaw}, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinRankHeavyFreq < 10*res.UniformTarget {
		t.Fatalf("min-rank heavy-group frequency %.4f not ≫ uniform %.4f",
			res.MinRankHeavyFreq, res.UniformTarget)
	}
	if res.RobustHeavyFreq > 10*res.UniformTarget {
		t.Fatalf("robust sampler biased toward heavy group: %.4f vs target %.4f",
			res.RobustHeavyFreq, res.UniformTarget)
	}
	if res.MinRankMaxDevNm < 5*res.RobustMaxDevNm {
		t.Fatalf("expected min-rank maxDevNm (%.2f) ≫ robust (%.2f)",
			res.MinRankMaxDevNm, res.RobustMaxDevNm)
	}
}

func TestSWDist(t *testing.T) {
	res, err := SWDist(seedsSpec(), 200, 64, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses > 10 {
		t.Fatalf("too many window query misses: %d", res.Misses)
	}
	if res.MaxDevNm > 1.0 {
		t.Fatalf("window sampling wildly non-uniform: maxDevNm %g", res.MaxDevNm)
	}
}

func TestSWSpaceSublinear(t *testing.T) {
	res, err := SWSpace(seedsSpec(), 4096, 10000, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 4096 fresh groups in the window; tracking them all would cost about
	// 25 words each (point, latest point, cell, adjacency, stamps). The
	// sketch must stay well below that and within the
	// O(levels × threshold) entry budget.
	naive := res.GroupsInWin * 25
	if res.PeakWords > naive/3 {
		t.Fatalf("peak %d words not sublinear vs naive %d", res.PeakWords, naive)
	}
	budget := res.Levels * res.ThresholdWord * 40
	if res.PeakWords > budget {
		t.Fatalf("peak %d words above O(log w · log m) budget %d", res.PeakWords, budget)
	}
}

// TestF0Infinite runs the Section 5 estimator as cmd/experiments -exp f0
// does (ε = 0.25, 9 copies) on every dataset over 8 seeds, and bounds the
// relative error: each dataset's mean, and the mean and p90 over all
// runs. The bounds sit well above the measured errors (docs/f0-accuracy.md)
// and below what the median gives when its copies are not independent:
// copies that share one hash function give the error of a single copy,
// about 2.5 times the median's, and fail here.
func TestF0Infinite(t *testing.T) {
	const (
		seeds       = 8
		maxMean     = 0.07 // per dataset
		maxPooled   = 0.045
		maxPooled90 = 0.09
	)
	var all []float64
	for _, spec := range dataset.AllSpecs() {
		var sum float64
		for seed := uint64(1); seed <= seeds; seed++ {
			res, err := F0Infinite(spec, 0.25, 9, seed)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.RobustRelErr
			all = append(all, res.RobustRelErr)
			// The classic estimators must report duplicate-inflated counts
			// near the stream length, nowhere near the group count.
			if res.KMVEstimate < 3*float64(res.Truth) || res.HLLEstimate < 3*float64(res.Truth) {
				t.Fatalf("%s seed %d: KMV %.0f, HLL %.0f should be ≫ truth %d on noisy data",
					res.Dataset, seed, res.KMVEstimate, res.HLLEstimate, res.Truth)
			}
		}
		if mean := sum / seeds; mean > maxMean {
			t.Errorf("%s: mean relative error %.4f over %d seeds, want ≤ %g", spec.Name(), mean, seeds, maxMean)
		}
	}
	slices.Sort(all)
	var sum float64
	for _, e := range all {
		sum += e
	}
	mean, p90 := sum/float64(len(all)), all[len(all)*9/10]
	t.Logf("relative error over %d runs: mean %.4f, p90 %.4f, max %.4f", len(all), mean, p90, all[len(all)-1])
	if mean > maxPooled || p90 > maxPooled90 {
		t.Errorf("relative error over %d runs: mean %.4f, p90 %.4f; want ≤ %g and ≤ %g",
			len(all), mean, p90, maxPooled, maxPooled90)
	}
}

// TestF0General: on uniform points where balls chain (Section 3), the
// estimate stays within a constant factor of the greedy partition's
// group count (Lemma 3.3).
func TestF0General(t *testing.T) {
	res, err := F0General(6000, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio < 0.5 || res.Ratio > 2 {
		t.Fatalf("estimate %g for %d greedy groups (ratio %.2f)", res.Estimate, res.GreedyGroups, res.Ratio)
	}
}

func TestF0Window(t *testing.T) {
	res, err := F0Window(seedsSpec(), 256, 32, 0.4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.RelErr > 1.0 {
		t.Fatalf("window F0 estimate %g for %d live groups", res.Estimate, res.LiveGroups)
	}
}

func TestGeneralBall(t *testing.T) {
	res, err := GeneralBall(100, 2, 0.3, 400, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.GreedyGroups < 5 || res.GreedyGroups > 100 {
		t.Fatalf("greedy partition has %d groups", res.GreedyGroups)
	}
	// Theorem 3.1: every ball hit with Θ(1/n) probability — nonzero min,
	// and max within a (generous) constant of 1/n.
	if res.MinBallFreq <= 0 {
		t.Fatal("some point's ball was never hit")
	}
	if res.MaxBallFreq > 12*res.UniformRef {
		t.Fatalf("max ball frequency %.4f ≫ uniform %.4f", res.MaxBallFreq, res.UniformRef)
	}
	if res.SpreadFactor > 30 {
		t.Fatalf("spread factor %.1f too large for Θ(1/n)", res.SpreadFactor)
	}
}

func TestAblations(t *testing.T) {
	hash, err := AblateHash(seedsSpec(), 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(hash) != 2 {
		t.Fatalf("hash ablation returned %d variants", len(hash))
	}
	kappa, err := AblateKappa(seedsSpec(), 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(kappa) != 4 {
		t.Fatalf("kappa ablation returned %d variants", len(kappa))
	}
	// Space must grow with kappa.
	if kappa[3].PeakWords <= kappa[0].PeakWords {
		t.Fatalf("kappa=8 peak %g not above kappa=1 peak %g",
			kappa[3].PeakWords, kappa[0].PeakWords)
	}
	side, err := AblateGridSide(seedsSpec(), 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(side) != 5 {
		t.Fatalf("grid ablation returned %d variants", len(side))
	}
}
