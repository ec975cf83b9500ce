package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hash"
)

// anySampled reports whether any of the cells is sampled at the current
// rate, hashing each afresh: the reference the entries' cached levels are
// checked against.
func (s *Sampler) anySampled(cells []grid.CellKey) bool {
	for _, c := range cells {
		if s.ls.SampledAt(uint64(c), s.r) {
			return true
		}
	}
	return false
}

// clusters builds k well-separated clusters with sizes[i] points each,
// intra-cluster radius ≤ alpha/2 around the center (so group diameter ≤ α),
// centers spaced far apart. Returns the stream (cluster-major) and the
// group label per point.
func clusters(rng *rand.Rand, sizes []int, dim int, alpha, spacing float64) ([]geom.Point, []int) {
	var stream []geom.Point
	var labels []int
	for c, n := range sizes {
		center := make(geom.Point, dim)
		for j := range center {
			center[j] = float64(c) * spacing
		}
		center[0] += rng.Float64() // break exact grid alignment
		for i := 0; i < n; i++ {
			p := center.Clone()
			for j := range p {
				p[j] += (rng.Float64() - 0.5) * alpha / math.Sqrt(float64(dim))
			}
			stream = append(stream, p)
			labels = append(labels, c)
		}
	}
	return stream, labels
}

func shuffleStream(rng *rand.Rand, pts []geom.Point, labels []int) {
	rng.Shuffle(len(pts), func(i, j int) {
		pts[i], pts[j] = pts[j], pts[i]
		labels[i], labels[j] = labels[j], labels[i]
	})
}

// labelOf returns the cluster whose any member is within alpha of p.
func labelOf(p geom.Point, pts []geom.Point, labels []int, alpha float64) int {
	for i, q := range pts {
		if geom.WithinBall(p, q, alpha) {
			return labels[i]
		}
	}
	return -1
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Alpha: 0, Dim: 2},
		{Alpha: -1, Dim: 2},
		{Alpha: math.NaN(), Dim: 2},
		{Alpha: math.Inf(1), Dim: 2},
		{Alpha: 1, Dim: 0},
		{Alpha: 1, Dim: 2, StreamBound: 1},
		{Alpha: 1, Dim: 2, Kappa: -1},
		{Alpha: 1, Dim: 2, K: -2},
		{Alpha: 1, Dim: 2, GridSide: -1},
		{Alpha: 1, Dim: 2, Hash: HashKind(9)},
	}
	for i, o := range bad {
		if _, err := NewSampler(o); err == nil {
			t.Errorf("case %d: expected error for %+v", i, o)
		}
	}
	good, err := NewSampler(Options{Alpha: 1, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := good.Options()
	if o.StreamBound != 1<<20 || o.Kappa != 4 || o.K != 1 {
		t.Errorf("defaults not applied: %+v", o)
	}
	if o.GridSide != 0.5 {
		t.Errorf("default grid side = %g, want α/2", o.GridSide)
	}
}

func TestOptionsHighDimDefaultSide(t *testing.T) {
	s, err := NewSampler(Options{Alpha: 2, Dim: 5, HighDim: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Options().GridSide; got != 10 {
		t.Errorf("high-dim grid side = %g, want d·α = 10", got)
	}
}

func TestEmptyQuery(t *testing.T) {
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2})
	if _, err := s.Query(); !errors.Is(err, ErrEmptySketch) {
		t.Fatalf("empty query error = %v", err)
	}
	if _, err := s.QueryK(3); !errors.Is(err, ErrEmptySketch) {
		t.Fatalf("empty QueryK error = %v", err)
	}
}

func TestSingleGroupAlwaysSampled(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	pts, _ := clusters(rng, []int{20}, 2, 1, 100)
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 7})
	for _, p := range pts {
		s.Process(p)
	}
	got, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	if !geom.WithinBall(got, pts[0], 1) {
		t.Fatalf("sample %v not within the single group", got)
	}
	// The representative must be the first point of the group.
	if !got.Equal(pts[0]) {
		t.Fatalf("sample %v is not the stream-first point %v", got, pts[0])
	}
}

func TestFirstPointIsRepresentative(t *testing.T) {
	// The returned sample must always be the *first* stream point of its
	// group, never a later near-duplicate (that is what keeps the sampling
	// uniform over groups).
	rng := rand.New(rand.NewPCG(2, 2))
	pts, labels := clusters(rng, []int{30, 30, 30, 30}, 3, 1, 50)
	shuffleStream(rng, pts, labels)
	firstOf := map[int]geom.Point{}
	for i, p := range pts {
		if _, ok := firstOf[labels[i]]; !ok {
			firstOf[labels[i]] = p
		}
	}
	for seed := uint64(0); seed < 30; seed++ {
		s, _ := NewSampler(Options{Alpha: 1, Dim: 3, Seed: seed})
		for _, p := range pts {
			s.Process(p)
		}
		got, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		lab := labelOf(got, pts, labels, 1)
		if lab < 0 {
			t.Fatalf("seed %d: sample %v not in any group", seed, got)
		}
		if !got.Equal(firstOf[lab]) {
			t.Fatalf("seed %d: sample %v is not the first point %v of group %d",
				seed, got, firstOf[lab], lab)
		}
	}
}

func TestUniformityAcrossGroups(t *testing.T) {
	// 16 groups with wildly different duplicate counts; the sampler must
	// hit each with ≈ 1/16 regardless. This is the heart of the paper.
	rng := rand.New(rand.NewPCG(3, 3))
	sizes := make([]int, 16)
	for i := range sizes {
		sizes[i] = 1 + i*10 // 1, 11, ..., 151 points per group
	}
	pts, labels := clusters(rng, sizes, 2, 1, 100)
	shuffleStream(rng, pts, labels)

	const runs = 4000
	counts := make([]int, 16)
	sm := hash.NewSplitMix(99)
	for r := 0; r < runs; r++ {
		s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: sm.Next()})
		for _, p := range pts {
			s.Process(p)
		}
		got, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		lab := labelOf(got, pts, labels, 1)
		if lab < 0 {
			t.Fatal("sample outside all groups")
		}
		counts[lab]++
	}
	target := float64(runs) / 16
	for g, c := range counts {
		if math.Abs(float64(c)-target) > 4*math.Sqrt(target) {
			t.Errorf("group %d (size %d): %d hits, want ≈%.0f", g, sizes[g], c, target)
		}
	}
}

func TestAcceptSetBounded(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	sizes := make([]int, 300)
	for i := range sizes {
		sizes[i] = 1 + rng.IntN(3)
	}
	pts, labels := clusters(rng, sizes, 2, 1, 40)
	shuffleStream(rng, pts, labels)
	opts := Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: len(pts)}
	s, _ := NewSampler(opts)
	thr := s.opts.acceptThreshold()
	for _, p := range pts {
		s.Process(p)
		if s.AcceptSize() > thr {
			t.Fatalf("|Sacc| = %d exceeds threshold %d", s.AcceptSize(), thr)
		}
	}
	if s.AcceptSize() == 0 {
		t.Fatal("accept set empty at end of stream")
	}
	if s.Rehashes() == 0 {
		t.Fatal("expected at least one rate doubling with 300 groups")
	}
}

func TestClassificationInvariant(t *testing.T) {
	// After every point: every accepted entry's cell is sampled at the
	// current rate; every rejected entry's cell is NOT sampled but one of
	// its adj cells is.
	rng := rand.New(rand.NewPCG(5, 5))
	sizes := make([]int, 120)
	for i := range sizes {
		sizes[i] = 1 + rng.IntN(4)
	}
	pts, labels := clusters(rng, sizes, 2, 1, 30)
	shuffleStream(rng, pts, labels)
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 11})
	check := func() {
		for _, e := range s.entries {
			own := s.ls.SampledAt(uint64(e.cell), s.r)
			if e.accepted && !own {
				t.Fatal("accepted entry in unsampled cell")
			}
			if !e.accepted {
				if own {
					t.Fatal("rejected entry in sampled cell")
				}
				if !s.anySampled(e.adj) {
					t.Fatal("rejected entry with no sampled adjacent cell")
				}
			}
		}
	}
	for i, p := range pts {
		s.Process(p)
		if i%13 == 0 {
			check()
		}
	}
	check()
}

func TestRejectSetComparableToAccept(t *testing.T) {
	// Lemma 2.6: |Srej| = O(log m), i.e. comparable to |Sacc|. Allow a
	// generous constant.
	rng := rand.New(rand.NewPCG(6, 6))
	sizes := make([]int, 400)
	for i := range sizes {
		sizes[i] = 1
	}
	pts, labels := clusters(rng, sizes, 2, 1, 25)
	shuffleStream(rng, pts, labels)
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 13, StreamBound: len(pts)})
	for _, p := range pts {
		s.Process(p)
	}
	thr := s.opts.acceptThreshold()
	if rej := s.RejectSize(); rej > 30*thr {
		t.Fatalf("|Srej| = %d far exceeds O(log m) scale (threshold %d)", rej, thr)
	}
}

func TestDuplicatesDoNotGrowState(t *testing.T) {
	// Feeding the same group a million times must keep state constant
	// after the first point.
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 17})
	base := geom.Point{5, 5}
	s.Process(base)
	w := s.SpaceWords()
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 5000; i++ {
		p := geom.Point{5 + (rng.Float64()-0.5)*0.5, 5 + (rng.Float64()-0.5)*0.5}
		s.Process(p)
	}
	if s.SpaceWords() != w {
		t.Fatalf("near-duplicates grew the sketch: %d → %d words", w, s.SpaceWords())
	}
	if s.AcceptSize()+s.RejectSize() != 1 {
		t.Fatalf("expected exactly one stored group, have %d", s.AcceptSize()+s.RejectSize())
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	pts, labels := clusters(rng, []int{5, 5, 5, 5, 5}, 3, 1, 60)
	shuffleStream(rng, pts, labels)
	run := func() (geom.Point, int, uint64) {
		s, _ := NewSampler(Options{Alpha: 1, Dim: 3, Seed: 12345})
		for _, p := range pts {
			s.Process(p)
		}
		q, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		return q, s.AcceptSize(), s.R()
	}
	q1, a1, r1 := run()
	q2, a2, r2 := run()
	if !q1.Equal(q2) || a1 != a2 || r1 != r2 {
		t.Fatal("same seed and stream produced different behaviour")
	}
}

func TestQueryKWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 2
	}
	pts, labels := clusters(rng, sizes, 2, 1, 50)
	shuffleStream(rng, pts, labels)
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 21, K: 5})
	for _, p := range pts {
		s.Process(p)
	}
	got, err := s.QueryK(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("QueryK returned %d points, want 5", len(got))
	}
	// All five must be in distinct groups.
	seen := map[int]bool{}
	for _, q := range got {
		lab := labelOf(q, pts, labels, 1)
		if lab < 0 {
			t.Fatalf("sample %v not in any group", q)
		}
		if seen[lab] {
			t.Fatalf("group %d sampled twice without replacement", lab)
		}
		seen[lab] = true
	}
}

func TestKOptionRaisesThreshold(t *testing.T) {
	s1, _ := NewSampler(Options{Alpha: 1, Dim: 2})
	s5, _ := NewSampler(Options{Alpha: 1, Dim: 2, K: 5})
	if s5.opts.acceptThreshold() != 5*s1.opts.acceptThreshold() {
		t.Fatalf("K=5 threshold %d, want 5× base %d",
			s5.opts.acceptThreshold(), s1.opts.acceptThreshold())
	}
}

func TestRandomRepresentativeUniformWithinGroup(t *testing.T) {
	// One group of 8 distinct points; with RandomRepresentative every point
	// must be returned ≈ 1/8 of the time (reservoir over the group).
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Point{float64(i) * 0.1, 0} // all within α=1 of each other
	}
	counts := make([]int, 8)
	const runs = 16000
	sm := hash.NewSplitMix(41)
	for r := 0; r < runs; r++ {
		s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: sm.Next(), RandomRepresentative: true})
		for _, p := range pts {
			s.Process(p)
		}
		got, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		idx := int(got[0]/0.1 + 0.5)
		counts[idx]++
	}
	for i, c := range counts {
		f := float64(c) / runs
		if math.Abs(f-0.125) > 0.02 {
			t.Errorf("point %d frequency %.4f, want ≈0.125", i, f)
		}
	}
}

func TestHighDimSparseData(t *testing.T) {
	// (α,β)-sparse data in d=10 with β ≫ d^1.5·α: clusters of radius α/2
	// spaced 200 apart. HighDim mode must sample uniformly.
	rng := rand.New(rand.NewPCG(11, 11))
	const d, alpha = 10, 1.0
	sizes := []int{4, 4, 4, 4, 4, 4}
	pts, labels := clusters(rng, sizes, d, alpha, 200)
	shuffleStream(rng, pts, labels)
	counts := make([]int, len(sizes))
	const runs = 3000
	sm := hash.NewSplitMix(51)
	for r := 0; r < runs; r++ {
		s, _ := NewSampler(Options{Alpha: alpha, Dim: d, Seed: sm.Next(), HighDim: true})
		for _, p := range pts {
			s.Process(p)
		}
		got, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		lab := labelOf(got, pts, labels, alpha)
		if lab < 0 {
			t.Fatal("sample not in any group")
		}
		counts[lab]++
	}
	target := float64(runs) / float64(len(sizes))
	for g, c := range counts {
		if math.Abs(float64(c)-target) > 5*math.Sqrt(target) {
			t.Errorf("high-dim group %d: %d hits, want ≈%.0f", g, c, target)
		}
	}
}

func TestGeneralDatasetBallProbability(t *testing.T) {
	// Theorem 3.1: on non-well-separated data every point's α-ball is hit
	// with probability Θ(1/F0). Uniform points in a small square at α=0.3:
	// check min/max ball-hit frequencies are within a constant factor.
	rng := rand.New(rand.NewPCG(12, 12))
	pts := make([]geom.Point, 120)
	for i := range pts {
		pts[i] = geom.Point{rng.Float64() * 3, rng.Float64() * 3}
	}
	const alpha = 0.3
	const runs = 3000
	hits := make([]int, len(pts))
	sm := hash.NewSplitMix(61)
	for r := 0; r < runs; r++ {
		s, _ := NewSampler(Options{Alpha: alpha, Dim: 2, Seed: sm.Next()})
		for _, p := range pts {
			s.Process(p)
		}
		q, err := s.Query()
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if geom.WithinBall(p, q, alpha) {
				hits[i]++
			}
		}
	}
	for i, h := range hits {
		if h == 0 {
			t.Errorf("point %d never covered by a sample", i)
		}
	}
	// Min and max ball-hit counts within a constant factor (Θ(1/n) both
	// ways). The constant in Theorem 3.1 is dimension-dependent; 25 is a
	// loose empirical cap for 2D.
	minH, maxH := hits[0], hits[0]
	for _, h := range hits {
		if h < minH {
			minH = h
		}
		if h > maxH {
			maxH = h
		}
	}
	if minH > 0 && maxH > 25*minH {
		t.Errorf("ball probabilities spread too wide: min %d, max %d", minH, maxH)
	}
}

func TestPRFHashMode(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	pts, labels := clusters(rng, []int{3, 3, 3, 3}, 2, 1, 40)
	shuffleStream(rng, pts, labels)
	s, err := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 71, Hash: HashPRF})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		s.Process(p)
	}
	if _, err := s.Query(); err != nil {
		t.Fatal(err)
	}
}

func TestProcessedAndSpaceCounters(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 14))
	pts, _ := clusters(rng, []int{5, 5}, 2, 1, 40)
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 81})
	for _, p := range pts {
		s.Process(p)
	}
	if s.Processed() != int64(len(pts)) {
		t.Fatalf("Processed = %d, want %d", s.Processed(), len(pts))
	}
	if s.SpaceWords() <= 0 {
		t.Fatal("SpaceWords must be positive after processing")
	}
	if s.PeakSpaceWords() < s.SpaceWords() {
		t.Fatal("peak < live")
	}
	if len(s.AcceptedReps())+len(s.RejectedReps()) != s.AcceptSize()+s.RejectSize() {
		t.Fatal("reps listing inconsistent with sizes")
	}
}
