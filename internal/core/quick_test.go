package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// TestQuickSamplerInvariants drives Algorithm 1 with randomized streams
// (group layout, duplicate counts, order, seed all random) and checks the
// structural invariants after every point:
//
//   - |Sacc| never exceeds the threshold,
//   - every accepted entry's cell is sampled at the current rate, every
//     rejected entry's is not (but an adjacent cell is),
//   - the query result, when the sketch is non-empty, is a stream point
//     and is the first stream point of its group.
func TestQuickSamplerInvariants(t *testing.T) {
	f := func(seed uint64, layout []uint8) bool {
		if len(layout) == 0 {
			return true
		}
		if len(layout) > 40 {
			layout = layout[:40]
		}
		rng := rand.New(rand.NewPCG(seed, 99))
		sizes := make([]int, len(layout))
		for i, v := range layout {
			sizes[i] = 1 + int(v%5)
		}
		pts, labels := clusters(rng, sizes, 2, 1, 30)
		shuffleStream(rng, pts, labels)

		s, err := NewSampler(Options{Alpha: 1, Dim: 2, Seed: seed, StreamBound: len(pts) + 1})
		if err != nil {
			return false
		}
		thr := s.opts.acceptThreshold()
		firstOf := map[int]geom.Point{}
		for i, p := range pts {
			if _, ok := firstOf[labels[i]]; !ok {
				firstOf[labels[i]] = p
			}
		}
		for _, p := range pts {
			s.Process(p)
			if s.AcceptSize() > thr {
				return false
			}
			for _, e := range s.entries {
				own := s.ls.SampledAt(uint64(e.cell), s.r)
				if e.accepted != own {
					return false
				}
				if !e.accepted && !s.anySampled(e.adj) {
					return false
				}
			}
		}
		q, err := s.Query()
		if err != nil {
			return len(pts) == 0
		}
		lab := labelOf(q, pts, labels, 1)
		if lab < 0 {
			return false
		}
		return q.Equal(firstOf[lab])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickWindowSamplerInWindow checks with randomized streams that the
// window sampler's answer always lies inside the current window.
func TestQuickWindowSamplerInWindow(t *testing.T) {
	f := func(seed uint64, wRaw uint8, groupsRaw uint8) bool {
		w := int64(4 + wRaw%60)
		groups := 1 + int(groupsRaw%12)
		ws, err := NewWindowSampler(Options{Alpha: 1, Dim: 2, Seed: seed}, seqWin(w))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 7))
		lastSeen := make(map[int]int64)
		for i := int64(1); i <= 4*w; i++ {
			g := rng.IntN(groups)
			ws.Process(geom.Point{float64(g) * 10, 0})
			lastSeen[g] = i
			q, err := ws.Query()
			if err != nil {
				return false // window is non-empty; fallback makes Query total
			}
			qg := int(q[0]/10 + 0.5)
			stamp, ok := lastSeen[qg]
			if !ok {
				return false
			}
			if stamp <= i-w {
				// The group's most recent appearance left the window; its
				// entry should have expired.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergeEquivalence checks with random shard splits that
// Merge(a, b) stores the same accepted representatives as the one-pass run
// over the concatenation.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(seed uint64, cut uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		sizes := make([]int, 12)
		for i := range sizes {
			sizes[i] = 1 + rng.IntN(3)
		}
		pts, labels := clusters(rng, sizes, 2, 1, 40)
		shuffleStream(rng, pts, labels)
		mid := int(cut) % (len(pts) + 1)
		opts := Options{Alpha: 1, Dim: 2, Seed: seed}

		a, _ := NewSampler(opts)
		for _, p := range pts[:mid] {
			a.Process(p)
		}
		b, _ := NewSampler(opts)
		for _, p := range pts[mid:] {
			b.Process(p)
		}
		m, err := Merge(a, b)
		if err != nil || checkSampler(m) != nil {
			return false
		}
		straight, _ := NewSampler(opts)
		for _, p := range pts {
			straight.Process(p)
		}
		if m.AcceptSize() != straight.AcceptSize() || m.R() != straight.R() {
			return false
		}
		want := pointSet(straight.AcceptedReps())
		for _, rep := range m.AcceptedReps() {
			if !want[rep.String()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickSerializationIdempotent round-trips random sketches twice and
// demands identical wire bytes the second time (the state is fully
// captured).
func TestQuickSerializationIdempotent(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		s, err := NewSampler(Options{Alpha: 1, Dim: 2, Seed: seed})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewPCG(seed, 5))
		for i := 0; i < int(n); i++ {
			s.Process(geom.Point{rng.Float64() * 100, rng.Float64() * 100})
		}
		blob1, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		r, err := UnmarshalSampler(blob1)
		if err != nil {
			return false
		}
		blob2, err := r.MarshalBinary()
		if err != nil {
			return false
		}
		if len(blob1) != len(blob2) {
			return false
		}
		for i := range blob1 {
			if blob1[i] != blob2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestProcessValidation(t *testing.T) {
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2})
	cases := []geom.Point{
		{1},               // wrong dimension
		{1, 2, 3},         // wrong dimension
		{math.NaN(), 0},   // NaN
		{0, math.Inf(1)},  // +Inf
		{math.Inf(-1), 0}, // −Inf
	}
	for _, p := range cases {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", p)
				}
			}()
			s.Process(p)
		}()
	}
	// Window sampler too.
	ws, _ := NewWindowSampler(Options{Alpha: 1, Dim: 2}, seqWin(4))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for NaN in window sampler")
			}
		}()
		ws.Process(geom.Point{math.NaN(), 0})
	}()
}
