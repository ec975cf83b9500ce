package core

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hash"
)

// tinyOpts forces a very small accept-set threshold (Kappa·log2(16) = 4) so
// that Split/Merge cascades fire constantly, exercising Algorithm 4 and 5
// under load.
func tinyOpts(seed uint64) Options {
	return Options{Alpha: 1, Dim: 2, Seed: seed, Kappa: 1, StreamBound: 16}
}

func (ws *WindowSampler) anySampledAt(cells []grid.CellKey, r uint64) bool {
	for _, c := range cells {
		if ws.ls.SampledAt(uint64(c), r) {
			return true
		}
	}
	return false
}

func TestSplitCascadeFires(t *testing.T) {
	ws, err := NewWindowSampler(tinyOpts(3), seqWin(64))
	if err != nil {
		t.Fatal(err)
	}
	thr := ws.opts.acceptThreshold()
	if thr != 4 {
		t.Fatalf("threshold = %d, want 4", thr)
	}
	// 60 distinct groups in a 64-window forces many promotions.
	for i := int64(1); i <= 300; i++ {
		g := (i - 1) % 60
		ws.Process(geom.Point{float64(g) * 10, 0})
	}
	// Entries must have reached upper levels.
	upper := 0
	for l := 1; l < ws.Levels(); l++ {
		upper += ws.levels[l].Size()
	}
	if upper == 0 {
		t.Fatal("no entries promoted above level 0 despite tiny threshold")
	}
	if ws.OverflowErrors() != 0 {
		t.Fatalf("overflow errors: %d", ws.OverflowErrors())
	}
}

func TestSplitPreservesLevelInvariants(t *testing.T) {
	ws, _ := NewWindowSampler(tinyOpts(5), seqWin(128))
	for i := int64(1); i <= 2000; i++ {
		g := (i*13 + 7) % 100
		ws.Process(geom.Point{float64(g) * 10, 0})

		thr := ws.opts.acceptThreshold()
		for l, lv := range ws.levels {
			if lv.AcceptSize() > thr && ws.SplitFailures() == 0 {
				t.Fatalf("step %d: level %d over threshold without split failure", i, l)
			}
			// Classification invariant per level: accepted ⇔ own cell
			// sampled at the level's rate.
			for _, e := range lv.entriesByStamp() {
				own := ws.ls.SampledAt(uint64(e.cell), lv.r)
				if e.accepted != own {
					t.Fatalf("step %d level %d: entry accepted=%v but own-cell sampled=%v",
						i, l, e.accepted, own)
				}
				if !e.accepted && !ws.anySampledAt(e.adj, lv.r) {
					t.Fatalf("step %d level %d: rejected entry with no sampled adj cell", i, l)
				}
			}
		}
	}
}

func TestSplitUniformityUnderCascades(t *testing.T) {
	// Uniform sampling must survive heavy promotion traffic: 48 groups
	// rotating through a 64-window with threshold 4.
	const groups = 48
	counts := make([]int, groups)
	const runs = 4000
	sm := hash.NewSplitMix(17)
	misses := 0
	for r := 0; r < runs; r++ {
		ws, _ := NewWindowSampler(tinyOpts(sm.Next()), seqWin(64))
		for i := int64(1); i <= 192; i++ {
			g := (i - 1) % groups
			ws.Process(geom.Point{float64(g) * 10, 0})
		}
		got, err := ws.Query()
		if err != nil {
			misses++ // low-probability empty-pool event; count it
			continue
		}
		counts[int(got[0]/10+0.5)]++
	}
	if misses > runs/50 {
		t.Fatalf("query failed in %d/%d runs", misses, runs)
	}
	total := runs - misses
	target := float64(total) / groups
	for g, c := range counts {
		if math.Abs(float64(c)-target) > 6*math.Sqrt(target)+0.02*target {
			t.Errorf("group %d: %d hits, want ≈%.0f", g, c, target)
		}
	}
}

func TestSplitKeepsGroupsUnique(t *testing.T) {
	// Promotion must not duplicate a group across levels.
	ws, _ := NewWindowSampler(tinyOpts(7), seqWin(256))
	for i := int64(1); i <= 3000; i++ {
		g := (i*29 + 11) % 200
		ws.Process(geom.Point{float64(g) * 10, 0})
		if i%151 != 0 {
			continue
		}
		var reps []geom.Point
		for _, lv := range ws.levels {
			for _, e := range lv.entriesByStamp() {
				reps = append(reps, e.rep)
			}
		}
		for a := 0; a < len(reps); a++ {
			for b := a + 1; b < len(reps); b++ {
				if geom.WithinBall(reps[a], reps[b], 1) {
					t.Fatalf("step %d: group duplicated across levels", i)
				}
			}
		}
	}
}

func TestSplitSpaceStaysBounded(t *testing.T) {
	// With the tiny threshold and thousands of groups, total entries must
	// stay O(levels × threshold), far below the number of window groups.
	ws, _ := NewWindowSampler(tinyOpts(9), seqWin(4096))
	for i := int64(1); i <= 20000; i++ {
		ws.Process(geom.Point{float64(i) * 10, 0}) // every point a new group
	}
	totalEntries := 0
	for _, lv := range ws.levels {
		totalEntries += lv.Size()
	}
	budget := ws.Levels() * ws.opts.acceptThreshold() * 12
	if totalEntries > budget {
		t.Fatalf("%d entries stored, budget %d (groups in window: 4096)", totalEntries, budget)
	}
	if ws.OverflowErrors() > 0 {
		t.Fatalf("overflow errors: %d", ws.OverflowErrors())
	}
}

func TestSplitStandaloneAlgorithm4Semantics(t *testing.T) {
	// Build a level directly and split it; verify the promoted prefix rule:
	// everything with rep stamp ≤ t moves, t is the newest accepted entry
	// sampled at the doubled rate, and re-classification follows
	// Definition 2.2 at the new rate.
	opts, err := Options{Alpha: 1, Dim: 2, Seed: 13}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	ws, _ := NewWindowSampler(opts, seqWin(1024))
	lv := ws.levels[0]
	for i := int64(1); i <= 500; i++ {
		lv.Process(geom.Point{float64(i) * 10, 0}, i)
	}
	before := lv.entriesByStamp()
	promoted, ok := ws.split(lv)
	if !ok {
		t.Fatal("split found no promotion point among 500 accepted entries")
	}
	// Find t independently.
	var wantT int64 = -1
	for _, e := range before {
		if e.accepted && ws.ls.SampledAt(uint64(e.cell), 2) && e.stamp > wantT {
			wantT = e.stamp
		}
	}
	for _, e := range promoted {
		if e.stamp > wantT {
			t.Fatalf("promoted entry with stamp %d > t=%d", e.stamp, wantT)
		}
		own := ws.ls.SampledAt(uint64(e.cell), 2)
		if e.accepted != own {
			t.Fatal("promoted entry misclassified at the doubled rate")
		}
	}
	for _, e := range lv.entriesByStamp() {
		if e.stamp <= wantT {
			t.Fatalf("entry with stamp %d ≤ t=%d left behind", e.stamp, wantT)
		}
	}
}
