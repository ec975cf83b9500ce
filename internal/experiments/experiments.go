// Package experiments implements the paper's Section 6 evaluation and this
// repository's extensions as reusable measurement functions. The
// cmd/experiments CLI and the root benchmark suite are thin wrappers around
// this package; docs/f0-accuracy.md records the F0 experiments' outputs.
//
// The experiments map to the paper's figures as follows:
//
//	Figures 5–12 — empirical sampling distributions (Dist)
//	Figure 13    — pTime (PTime)
//	Figure 14    — pSpace (PSpace)
//	Figure 15    — stdDevNm / maxDevNm (part of Dist)
//	extensions   — sliding-window uniformity/space, F0 accuracy, the
//	               standard-sampler bias demonstration, and ablations
package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hash"
	"repro/internal/metrics"
)

// samplerOptions are the options the paper's experiments correspond to:
// the Section 4 parametrization (grid side d·α) since all eight datasets
// have d ≥ 5, with near-duplicate scale 1/(2·d^1.5) matching its sparsity
// requirement. Seed varies per run.
func samplerOptions(inst dataset.Instance, seed uint64) core.Options {
	return core.Options{
		Alpha:       inst.Alpha,
		Dim:         inst.Spec.Base.Dim(),
		StreamBound: len(inst.Points) + 1,
		Seed:        seed,
		HighDim:     true,
	}
}

// labelIndex maps every stream point (by exact coordinates) to its
// ground-truth group, so a returned sample can be attributed to a group in
// O(1).
type labelIndex map[uint64]int

func newLabelIndex(inst dataset.Instance) labelIndex {
	ix := make(labelIndex, len(inst.Points))
	for i, p := range inst.Points {
		ix[baseline.PointKey(p)] = inst.Groups[i]
	}
	return ix
}

func (ix labelIndex) of(p geom.Point) (int, error) {
	g, ok := ix[baseline.PointKey(p)]
	if !ok {
		return 0, fmt.Errorf("experiments: sample %v is not a stream point", p)
	}
	return g, nil
}

// DistResult is the outcome of the Figures 5–12/15 experiment for one
// dataset: the empirical sampling distribution over groups and its
// normalized deviations.
type DistResult struct {
	Dataset   string
	Runs      int
	Groups    int
	StreamLen int
	StdDevNm  float64 // paper reports ≤ 0.1 on all datasets
	MaxDevNm  float64 // paper reports ≤ 0.2 on all datasets
	ChiSquare float64
	MinFreq   float64
	MaxFreq   float64
	Misses    int // runs where the sketch was empty (≤ 1/m probability each)

	// NoiseFloor is the stdDevNm a PERFECTLY uniform sampler would show
	// at this run count from multinomial noise alone, ≈ sqrt(Groups/Runs).
	// Compare StdDevNm against it: the paper's ≤0.1 at 200k–500k runs
	// corresponds to a measurement at/below its own noise floor.
	NoiseFloor float64

	// Freqs is the full empirical sampling distribution over groups — the
	// series Figures 5–12 plot. Index = group id.
	Freqs []float64
}

// Dist runs the robust ℓ0-sampler `runs` times over the dataset (fresh
// random bits each run, as the paper does) and measures how uniformly the
// groups are sampled.
func Dist(spec dataset.Spec, runs int, seed uint64) (DistResult, error) {
	inst := dataset.Build(spec, seed)
	ix := newLabelIndex(inst)
	counts := metrics.NewCounts(inst.NumGroups)
	sm := hash.NewSplitMix(seed ^ 0xd157)
	misses := 0
	for r := 0; r < runs; r++ {
		s, err := core.NewSampler(samplerOptions(inst, sm.Next()))
		if err != nil {
			return DistResult{}, err
		}
		for _, p := range inst.Points {
			s.Process(p)
		}
		q, err := s.Query()
		if err != nil {
			misses++
			continue
		}
		g, err := ix.of(q)
		if err != nil {
			return DistResult{}, err
		}
		counts.Observe(g)
	}
	freqs := counts.Frequencies()
	minF, maxF := freqs[0], freqs[0]
	for _, f := range freqs {
		if f < minF {
			minF = f
		}
		if f > maxF {
			maxF = f
		}
	}
	return DistResult{
		Dataset:   spec.Name(),
		Runs:      runs,
		Groups:    inst.NumGroups,
		StreamLen: len(inst.Points),
		StdDevNm:  counts.StdDevNm(),
		MaxDevNm:  counts.MaxDevNm(),
		ChiSquare: counts.ChiSquare(),
		MinFreq:   minF,
		MaxFreq:   maxF,
		Misses:    misses,
		NoiseFloor: math.Sqrt(float64(inst.NumGroups) /
			math.Max(1, float64(counts.Total()))),
		Freqs: freqs,
	}, nil
}

// TimeResult is the Figure 13 outcome for one dataset.
type TimeResult struct {
	Dataset   string
	PerItem   time.Duration
	StreamLen int
	Runs      int
}

// PTime measures per-item processing time by scanning the stream `runs`
// times single-threaded, as in Section 6.1.
func PTime(spec dataset.Spec, runs int, seed uint64) (TimeResult, error) {
	inst := dataset.Build(spec, seed)
	var tm metrics.Timer
	sm := hash.NewSplitMix(seed ^ 0x71e3)
	for r := 0; r < runs; r++ {
		s, err := core.NewSampler(samplerOptions(inst, sm.Next()))
		if err != nil {
			return TimeResult{}, err
		}
		start := time.Now()
		for _, p := range inst.Points {
			s.Process(p)
		}
		tm.AddRun(time.Since(start), int64(len(inst.Points)))
	}
	return TimeResult{
		Dataset:   spec.Name(),
		PerItem:   tm.PerItem(),
		StreamLen: len(inst.Points),
		Runs:      runs,
	}, nil
}

// SpaceResult is the Figure 14 outcome for one dataset.
type SpaceResult struct {
	Dataset   string
	PeakWords float64 // mean peak over runs
	MaxWords  int     // worst peak over runs
	StreamLen int
	Runs      int
}

// PSpace measures peak sketch size in words over `runs` scans.
func PSpace(spec dataset.Spec, runs int, seed uint64) (SpaceResult, error) {
	inst := dataset.Build(spec, seed)
	sm := hash.NewSplitMix(seed ^ 0x59ace)
	var sum float64
	worst := 0
	for r := 0; r < runs; r++ {
		s, err := core.NewSampler(samplerOptions(inst, sm.Next()))
		if err != nil {
			return SpaceResult{}, err
		}
		for _, p := range inst.Points {
			s.Process(p)
		}
		peak := s.PeakSpaceWords()
		sum += float64(peak)
		if peak > worst {
			worst = peak
		}
	}
	return SpaceResult{
		Dataset:   spec.Name(),
		PeakWords: sum / float64(runs),
		MaxWords:  worst,
		StreamLen: len(inst.Points),
		Runs:      runs,
	}, nil
}
