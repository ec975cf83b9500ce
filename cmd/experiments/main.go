// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 6) plus this repository's extensions, printing one
// text table per experiment. Package internal/experiments maps the
// experiments to the paper's figures; docs/f0-accuracy.md records the
// Section 5 estimators' error distributions.
//
// Usage:
//
//	experiments -exp dist  [-dataset rand5] [-runs N] [-seed S]   Figures 5–12, 15
//	experiments -exp time  [-runs N]                              Figure 13
//	experiments -exp space [-runs N]                              Figure 14
//	experiments -exp bias  [-runs N]                              §1 motivation
//	experiments -exp swdist [-window W] [-groups G] [-runs N]     Theorem 2.7 extension
//	experiments -exp swspace [-window W]                          Theorem 2.7 extension
//	experiments -exp f0     [-eps E] [-runs N]                    Section 5
//	experiments -exp f0win  [-window W] [-groups G] [-eps E] [-runs N]  Section 5
//	experiments -exp f0general [-eps E] [-runs N]                  Section 5 on Section 3's general data
//	experiments -exp ablate [-runs N]                             design ablations
//	experiments -exp engine [-shards P] [-runs scans]             sharded engine scaling
//	experiments -exp all                                          everything above
//
// Paper-scale run counts (200k–500k) reproduce Figure 15's headline
// numbers but take hours; the defaults are sized for minutes. All
// randomness derives from -seed. With -runs N > 1, f0 and f0win run seeds
// -seed … -seed+N−1 and print each dataset's relative-error distribution
// (docs/f0-accuracy.md records one); -csv then receives every run's error.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"text/tabwriter"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: dist|time|space|bias|swdist|swspace|f0|f0win|f0general|ablate|general|all")
		ds      = flag.String("dataset", "", "restrict to one dataset (rand5, rand20, yacht, seeds, rand5-pl, ...)")
		runs    = flag.Int("runs", 0, "number of runs (0 = per-experiment default)")
		seed    = flag.Uint64("seed", 1, "root random seed")
		windowW = flag.Int64("window", 1024, "sliding window size")
		groups  = flag.Int("groups", 64, "live groups for sliding-window experiments")
		eps     = flag.Float64("eps", 0.25, "accuracy parameter for F0 experiments")
		csvOut  = flag.String("csv", "", "for -exp dist: write per-group frequencies (the Figures 5–12 series) to this CSV file; for -exp f0/f0win with -runs > 1: every run's relative error")
		shards  = flag.Int("shards", 0, "for -exp engine: max shard count to sweep (0 = scale with cores)")
	)
	flag.Parse()

	specs := dataset.AllSpecs()
	if *ds != "" {
		s, err := dataset.SpecByName(*ds)
		if err != nil {
			fatal(err)
		}
		specs = []dataset.Spec{s}
	}

	run := func(name string, f func() error) {
		switch *exp {
		case name, "all":
			if err := f(); err != nil {
				fatal(err)
			}
		}
	}
	known := map[string]bool{"dist": true, "time": true, "space": true, "bias": true,
		"swdist": true, "swspace": true, "f0": true, "f0win": true, "f0general": true, "ablate": true,
		"general": true, "engine": true, "all": true}
	if !known[*exp] {
		fatal(fmt.Errorf("unknown experiment %q", *exp))
	}

	run("dist", func() error { return distExp(specs, orDefault(*runs, 2000), *seed, *csvOut) })
	run("time", func() error { return timeExp(specs, orDefault(*runs, 20), *seed) })
	run("space", func() error { return spaceExp(specs, orDefault(*runs, 20), *seed) })
	run("bias", func() error { return biasExp(specs, orDefault(*runs, 1000), *seed) })
	run("swdist", func() error { return swDistExp(specs, orDefault(*runs, 500), *windowW, *groups, *seed) })
	run("swspace", func() error { return swSpaceExp(specs, *windowW, *seed) })
	run("f0", func() error { return f0Exp(specs, *eps, orDefault(*runs, 1), *seed, *csvOut) })
	run("f0win", func() error { return f0WinExp(specs, *windowW, *groups, *eps, orDefault(*runs, 1), *seed, *csvOut) })
	run("f0general", func() error { return f0GeneralExp(*eps, orDefault(*runs, 100), *seed, *csvOut) })
	run("ablate", func() error { return ablateExp(specs, orDefault(*runs, 300), *seed) })
	run("general", func() error { return generalExp(orDefault(*runs, 2000), *seed) })
	run("engine", func() error { return engineExp(specs, *shards, orDefault(*runs, 10), *seed) })
}

func engineExp(specs []dataset.Spec, maxShards, scans int, seed uint64) error {
	if maxShards <= 0 {
		maxShards = experiments.MaxEngineShards()
	}
	w := table("Extension: sharded streaming engine — ingestion scaling and merged-snapshot accuracy",
		"dataset", "shards", "points", "elapsed", "pts/s", "estimate", "relErr", "imbalance")
	for _, s := range specs {
		rs, err := experiments.EngineScaling(s, maxShards, scans, seed)
		if err != nil {
			return err
		}
		for _, r := range rs {
			fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%.0f\t%.0f\t%.3f\t%.2f\n",
				r.Dataset, r.Shards, r.Points, r.Elapsed.Round(time.Millisecond),
				r.Throughput, r.Estimate, r.RelErr, r.Imbalance)
		}
	}
	return w.Flush()
}

// createCSV creates path and writes the header line, or returns nil when
// path is empty (no CSV requested).
func createCSV(path, header string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintln(f, header); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func table(header string, cols ...string) *tabwriter.Writer {
	fmt.Printf("\n== %s ==\n", header)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, c)
	}
	fmt.Fprintln(w)
	return w
}

func distExp(specs []dataset.Spec, runs int, seed uint64, csvOut string) error {
	csv, err := createCSV(csvOut, "dataset,group,frequency")
	if err != nil {
		return err
	}
	if csv != nil {
		defer csv.Close()
	}
	w := table("Figures 5–12 & 15: empirical sampling distribution (paper: stdDevNm ≤ 0.1, maxDevNm ≤ 0.2 at 200k–500k runs)",
		"dataset", "runs", "groups", "stream", "stdDevNm", "noiseFloor", "maxDevNm", "minFreq", "maxFreq", "misses")
	for _, s := range specs {
		r, err := experiments.Dist(s, runs, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\t%.5f\t%.5f\t%d\n",
			r.Dataset, r.Runs, r.Groups, r.StreamLen, r.StdDevNm, r.NoiseFloor, r.MaxDevNm, r.MinFreq, r.MaxFreq, r.Misses)
		if csv != nil {
			for g, f := range r.Freqs {
				fmt.Fprintf(csv, "%s,%d,%.6f\n", r.Dataset, g, f)
			}
		}
	}
	return w.Flush()
}

func timeExp(specs []dataset.Spec, runs int, seed uint64) error {
	w := table("Figure 13: pTime — processing time per item (single thread)",
		"dataset", "runs", "stream", "perItem")
	for _, s := range specs {
		r, err := experiments.PTime(s, runs, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\n", r.Dataset, r.Runs, r.StreamLen, r.PerItem)
	}
	return w.Flush()
}

func spaceExp(specs []dataset.Spec, runs int, seed uint64) error {
	w := table("Figure 14: pSpace — peak sketch size (words)",
		"dataset", "runs", "stream", "meanPeak", "worstPeak")
	for _, s := range specs {
		r, err := experiments.PSpace(s, runs, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%d\n", r.Dataset, r.Runs, r.StreamLen, r.PeakWords, r.MaxWords)
	}
	return w.Flush()
}

func biasExp(specs []dataset.Spec, runs int, seed uint64) error {
	w := table("§1 motivation: robust sampler vs standard min-rank ℓ0-sampler on noisy data",
		"dataset", "runs", "robust maxDevNm", "minrank maxDevNm", "P[heavy] robust", "P[heavy] minrank", "uniform target")
	for _, s := range specs {
		r, err := experiments.Bias(s, runs, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.3f\t%.4f\t%.4f\t%.4f\n",
			r.Dataset, r.Runs, r.RobustMaxDevNm, r.MinRankMaxDevNm,
			r.RobustHeavyFreq, r.MinRankHeavyFreq, r.UniformTarget)
	}
	return w.Flush()
}

func swDistExp(specs []dataset.Spec, runs int, windowW int64, groups int, seed uint64) error {
	w := table("Extension: sliding-window sampling uniformity (Theorem 2.7)",
		"dataset", "runs", "window", "liveGroups", "stdDevNm", "maxDevNm", "misses")
	for _, s := range specs {
		r, err := experiments.SWDist(s, runs, windowW, groups, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.4f\t%.4f\t%d\n",
			r.Dataset, r.Runs, r.WindowSize, r.LiveGroups, r.StdDevNm, r.MaxDevNm, r.Misses)
	}
	return w.Flush()
}

func swSpaceExp(specs []dataset.Spec, windowW int64, seed uint64) error {
	w := table("Extension: sliding-window space, every point a fresh group (O(log w · log m) words)",
		"dataset", "window", "groupsInWin", "peakWords", "levels", "threshold")
	for _, s := range specs {
		r, err := experiments.SWSpace(s, windowW, int(3*windowW), seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Dataset, r.WindowSize, r.GroupsInWin, r.PeakWords, r.Levels, r.ThresholdWord)
	}
	return w.Flush()
}

func f0Exp(specs []dataset.Spec, eps float64, runs int, seed uint64, csvOut string) error {
	if runs > 1 {
		return relErrDist("Section 5: robust F0 relative error over seeds", specs, runs, seed, csvOut,
			func(s dataset.Spec, seed uint64) (float64, float64, error) {
				r, err := experiments.F0Infinite(s, eps, 9, seed)
				return r.RobustEstimate, float64(r.Truth), err
			})
	}
	w := table("Section 5: robust F0 vs classic estimators on noisy streams",
		"dataset", "groups(truth)", "stream", "robust est", "relErr", "KMV", "HLL")
	for _, s := range specs {
		r, err := experiments.F0Infinite(s, eps, 9, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.0f\t%.3f\t%.0f\t%.0f\n",
			r.Dataset, r.Truth, r.Stream, r.RobustEstimate, r.RobustRelErr, r.KMVEstimate, r.HLLEstimate)
	}
	return w.Flush()
}

func f0WinExp(specs []dataset.Spec, windowW int64, groups int, eps float64, runs int, seed uint64, csvOut string) error {
	if runs > 1 {
		return relErrDist("Section 5: sliding-window robust F0 relative error over seeds", specs, runs, seed, csvOut,
			func(s dataset.Spec, seed uint64) (float64, float64, error) {
				r, err := experiments.F0Window(s, windowW, groups, eps, seed)
				return r.Estimate, float64(r.LiveGroups), err
			})
	}
	w := table("Section 5: sliding-window robust F0",
		"dataset", "window", "liveGroups", "estimate", "relErr", "copies")
	for _, s := range specs {
		r, err := experiments.F0Window(s, windowW, groups, eps, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.1f\t%.3f\t%d\n",
			r.Dataset, r.WindowSize, r.LiveGroups, r.Estimate, r.RelErr, r.Copies)
	}
	return w.Flush()
}

// relErrDist runs estimate for every dataset at seeds seed … seed+runs−1
// and prints one row per dataset: the mean, median, p90 and maximum of
// the relative error, and the mean of estimate/truth (the bias). csvOut,
// when set, receives every run.
func relErrDist(title string, specs []dataset.Spec, runs int, seed uint64, csvOut string,
	estimate func(dataset.Spec, uint64) (est, truth float64, err error)) error {
	csv, err := createCSV(csvOut, "dataset,seed,estimate,truth,relErr")
	if err != nil {
		return err
	}
	if csv != nil {
		defer csv.Close()
	}
	w := table(title, "dataset", "runs", "mean", "p50", "p90", "max", "est/truth")
	for _, s := range specs {
		errs := make([]float64, runs)
		var bias float64
		for i := range errs {
			est, truth, err := estimate(s, seed+uint64(i))
			if err != nil {
				return err
			}
			errs[i] = metrics.RelErr(est, truth)
			bias += est / truth
			if csv != nil {
				fmt.Fprintf(csv, "%s,%d,%g,%g,%.6f\n", s.Name(), seed+uint64(i), est, truth, errs[i])
			}
		}
		slices.Sort(errs)
		var sum float64
		for _, e := range errs {
			sum += e
		}
		q := func(f float64) float64 { return errs[int(f*float64(runs-1))] }
		fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\n", s.Name(), runs, sum/float64(runs),
			q(0.5), q(0.9), errs[runs-1], bias/float64(runs))
	}
	return w.Flush()
}

// f0GeneralExp runs the estimator on general (non-separated) data at
// seeds seed … seed+runs−1 and prints the distribution of the estimate
// over the greedy partition's group count: its mean, coefficient of
// variation and deciles. csvOut, when set, receives every run's ratio.
func f0GeneralExp(eps float64, runs int, seed uint64, csvOut string) error {
	csv, err := createCSV(csvOut, "points,seed,greedyGroups,estimate,ratio")
	if err != nil {
		return err
	}
	if csv != nil {
		defer csv.Close()
	}
	w := table("Section 5 on general (non-separated) data: estimate / greedy groups over seeds",
		"points", "runs", "greedy", "mean", "cv", "p10", "p50", "p90")
	for _, points := range []int{2000, 6000, 20000} {
		ratios := make([]float64, runs)
		greedy := 0
		for i := range ratios {
			r, err := experiments.F0General(points, eps, seed+uint64(i))
			if err != nil {
				return err
			}
			ratios[i], greedy = r.Ratio, r.GreedyGroups
			if csv != nil {
				fmt.Fprintf(csv, "%d,%d,%d,%.0f,%.6f\n", points, seed+uint64(i), r.GreedyGroups, r.Estimate, r.Ratio)
			}
		}
		slices.Sort(ratios)
		var sum, sq float64
		for _, v := range ratios {
			sum += v
		}
		mean := sum / float64(runs)
		for _, v := range ratios {
			sq += (v - mean) * (v - mean)
		}
		q := func(f float64) float64 { return ratios[int(f*float64(runs-1))] }
		fmt.Fprintf(w, "%d\t%d\t~%d\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\n", points, runs, greedy, mean,
			math.Sqrt(sq/float64(max(1, runs-1)))/mean, q(0.1), q(0.5), q(0.9))
	}
	return w.Flush()
}

func ablateExp(specs []dataset.Spec, runs int, seed uint64) error {
	// Ablations are single-dataset sweeps; use the first spec.
	s := specs[0]
	w := table(fmt.Sprintf("Ablations on %s: hash family, κ0, grid side", s.Name()),
		"variant", "runs", "stdDevNm", "maxDevNm", "perItem", "peakWords")
	emit := func(rs []experiments.AblationResult, err error) error {
		if err != nil {
			return err
		}
		for _, r := range rs {
			fmt.Fprintf(w, "%s\t%d\t%.4f\t%.4f\t%v\t%.0f\n",
				r.Variant, r.Runs, r.StdDevNm, r.MaxDevNm, r.PerItem, r.PeakWords)
		}
		return nil
	}
	if err := emit(experiments.AblateHash(s, runs, seed)); err != nil {
		return err
	}
	if err := emit(experiments.AblateKappa(s, runs, seed)); err != nil {
		return err
	}
	if err := emit(experiments.AblateGridSide(s, runs, seed)); err != nil {
		return err
	}
	return w.Flush()
}

func generalExp(runs int, seed uint64) error {
	w := table("Theorem 3.1: general (non-separated) data — per-point ball-hit probability is Θ(1/F0)",
		"points", "alpha", "runs", "greedyGroups", "minBallFreq", "maxBallFreq", "1/groups", "spread")
	for _, cfg := range []struct {
		points int
		alpha  float64
	}{{100, 0.3}, {200, 0.3}, {200, 0.5}} {
		r, err := experiments.GeneralBall(cfg.points, 2, cfg.alpha, runs, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%g\t%d\t%d\t%.5f\t%.5f\t%.5f\t%.1f\n",
			r.Points, r.Alpha, r.Runs, r.GreedyGroups, r.MinBallFreq, r.MaxBallFreq, r.UniformRef, r.SpreadFactor)
	}
	return w.Flush()
}
