package experiments

import (
	"math"
	"math/rand/v2"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/f0"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/window"
)

// F0Result compares the robust F0 estimate with the ground-truth group
// count and with what a standard (duplicate-counting) estimator reports —
// the Section 5 experiment plus the motivating contrast.
type F0Result struct {
	Dataset string
	Truth   int // number of groups
	Stream  int // stream length = what naive distinct counting sees

	RobustEstimate float64
	RobustRelErr   float64

	// KMVEstimate is the classic noiseless-stream estimator run on the
	// same noisy stream: it counts every near-duplicate as distinct, so it
	// lands near Stream rather than Truth.
	KMVEstimate float64
	// HLLEstimate likewise.
	HLLEstimate float64
}

// F0Infinite measures the Section 5 infinite-window estimator with median
// boosting over `copies` copies at accuracy eps.
func F0Infinite(spec dataset.Spec, eps float64, copies int, seed uint64) (F0Result, error) {
	inst := dataset.Build(spec, seed)
	opts := samplerOptions(inst, seed^0xf0e57)
	m, err := f0.NewMedian(opts, eps, 0, copies)
	if err != nil {
		return F0Result{}, err
	}
	kmv := baseline.NewKMV(1024, seed^0x5a5a)
	hll := baseline.NewHyperLogLog(12, seed^0xa5a5)
	for _, p := range inst.Points {
		m.Process(p)
		kmv.Process(p)
		hll.Process(p)
	}
	est, err := m.Estimate()
	if err != nil {
		return F0Result{}, err
	}
	return F0Result{
		Dataset:        spec.Name(),
		Truth:          inst.NumGroups,
		Stream:         len(inst.Points),
		RobustEstimate: est,
		RobustRelErr:   metrics.RelErr(est, float64(inst.NumGroups)),
		KMVEstimate:    kmv.Estimate(),
		HLLEstimate:    hll.Estimate(),
	}, nil
}

// F0WindowResult measures the sliding-window robust F0 estimator.
type F0WindowResult struct {
	Dataset    string
	WindowSize int64
	LiveGroups int
	Estimate   float64
	RelErr     float64
	Copies     int
}

// F0Window keeps liveGroups groups rotating through a window of size w and
// asks the estimator for the window's group count.
func F0Window(spec dataset.Spec, w int64, liveGroups int, eps float64, seed uint64) (F0WindowResult, error) {
	inst := dataset.Build(spec, seed)
	perGroup := make(map[int][]int)
	for i, g := range inst.Groups {
		if g < liveGroups {
			perGroup[g] = append(perGroup[g], i)
		}
	}
	opts := samplerOptions(inst, seed^0xf05d)
	// A small per-level threshold gives the level observable enough
	// resolution at window scale.
	opts.Kappa = 1
	opts.StreamBound = 16
	we, err := f0.NewWindowEstimator(opts, window.Window{Kind: window.Sequence, W: w}, eps, 0)
	if err != nil {
		return F0WindowResult{}, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xf0))
	for i := int64(0); i < 4*w; i++ {
		g := int(i) % liveGroups
		idxs := perGroup[g]
		we.Process(inst.Points[idxs[rng.IntN(len(idxs))]])
	}
	est, err := we.Estimate()
	if err != nil {
		return F0WindowResult{}, err
	}
	return F0WindowResult{
		Dataset:    spec.Name(),
		WindowSize: w,
		LiveGroups: liveGroups,
		Estimate:   est,
		RelErr:     metrics.RelErr(est, float64(liveGroups)),
		Copies:     we.Copies(),
	}, nil
}

// F0GeneralResult measures the infinite-window estimator on data that is
// not well-separated (Section 3), where groups chain and F0(S, α) is only
// defined up to constant factors: the estimate is compared with the
// greedy partition's group count (Definition 3.2, Lemma 3.3).
type F0GeneralResult struct {
	Points       int
	GreedyGroups int
	Estimate     float64
	Ratio        float64 // Estimate / GreedyGroups
}

// F0General runs the median-of-copies estimator (ε = eps, 9 copies, grid
// side α/2) over points drawn uniformly from a square sized like
// GeneralBall's (about 11 points per unit area), so that balls of radius
// α = 0.3 overlap in chains.
func F0General(points int, eps float64, seed uint64) (F0GeneralResult, error) {
	const alpha = 0.3
	side := 3 * math.Sqrt(float64(points)/100)
	rng := rand.New(rand.NewPCG(seed, 0xf06e))
	pts := make(geom.Dataset, points)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * side, rng.Float64() * side}
	}
	gdy := partition.Greedy(pts, alpha, nil)
	m, err := f0.NewMedian(core.Options{Alpha: alpha, Dim: 2, StreamBound: points + 1, Seed: seed ^ 0xf06e11}, eps, 0, 9)
	if err != nil {
		return F0GeneralResult{}, err
	}
	m.ProcessBatch(pts)
	est, err := m.Estimate()
	if err != nil {
		return F0GeneralResult{}, err
	}
	return F0GeneralResult{
		Points:       points,
		GreedyGroups: gdy.Groups,
		Estimate:     est,
		Ratio:        est / float64(gdy.Groups),
	}, nil
}
