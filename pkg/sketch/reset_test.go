package sketch

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/window"
)

// resetStream returns n stamped 2-D points of groups 10 apart with up to
// ±0.2 of jitter, drawn from 400 groups (so groups recur), stamped 8
// points per stamp from stamp base on.
func resetStream(n int, seed uint64, base int64) ([]geom.Point, []int64) {
	rng := rand.New(rand.NewPCG(seed, 11))
	pts := make([]geom.Point, n)
	stamps := make([]int64, n)
	for i := range pts {
		g := rng.IntN(400)
		pts[i] = geom.Point{float64(g%20)*10 + (rng.Float64()-0.5)*0.4, float64(g/20)*10 + (rng.Float64()-0.5)*0.4}
		stamps[i] = base + int64(i/8)
	}
	return pts, stamps
}

// feedStream feeds pts to s in batches of 100, stamped when s is Stamped.
func feedStream(s Sketch, pts []geom.Point, stamps []int64) {
	for i := 0; i < len(pts); i += 100 {
		j := min(i+100, len(pts))
		if st, ok := s.(Stamped); ok {
			st.ProcessStampedBatch(pts[i:j], stamps[i:j])
		} else {
			s.ProcessBatch(pts[i:j])
		}
	}
}

// resetState renders what a sketch serializes (when it has a wire
// format) and answers: its space, a run of Query answers, and for an L0
// two QueryK draws; so equal states have drawn equal query randomness.
func resetState(t *testing.T, s Sketch) string {
	t.Helper()
	var b strings.Builder
	blob, err := s.Serialize()
	switch {
	case err == nil:
		fmt.Fprintf(&b, "%x", blob)
	case !errors.Is(err, ErrNotSerializable):
		t.Fatal(err)
	}
	fmt.Fprintf(&b, " space=%d", s.Space())
	for range 8 {
		res, err := s.Query()
		fmt.Fprintf(&b, " %v/%v/%v", res.Sample, res.Estimate, err)
	}
	if l, ok := s.(*L0); ok {
		for range 2 {
			q, err := l.QueryK(3)
			fmt.Fprintf(&b, " %v/%v", q, err)
		}
	}
	return b.String()
}

// TestResetMatchesFresh: for every Mergeable family, a sketch fed one
// stream and queried, then Reset and fed a second stream, serializes and
// answers (query RNG draws included) exactly as a fresh sketch fed only
// the second; and merging two shards into a reset sketch equals merging
// them into a fresh one.
func TestResetMatchesFresh(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 3, Kappa: 2, StreamBound: 1 << 10, HighDim: true}
	rr := opts
	rr.RandomRepresentative = true
	win := window.Window{Kind: window.Time, W: 120}
	families := []struct {
		name string
		mk   func() (Mergeable, error)
	}{
		{"l0", func() (Mergeable, error) { return NewL0(opts) }},
		{"l0/random-rep", func() (Mergeable, error) { return NewL0(rr) }},
		{"windowl0", func() (Mergeable, error) { return NewWindowL0(opts, win) }},
		{"windowl0/random-rep", func() (Mergeable, error) { return NewWindowL0(rr, win) }},
		{"f0", func() (Mergeable, error) { return NewF0(opts, 0.5, 5) }},
		{"windowf0", func() (Mergeable, error) { return NewWindowF0(opts, win, 0.5) }},
		{"kmv", func() (Mergeable, error) { return NewKMV(64, 3), nil }},
		{"fm", func() (Mergeable, error) { return NewFM(16, 3), nil }},
		{"hll", func() (Mergeable, error) { return NewHyperLogLog(8, 3), nil }},
		{"linearcounting", func() (Mergeable, error) { return NewLinearCounting(1024, 3), nil }},
	}
	first, firstStamps := resetStream(3000, 1, 0)
	second, secondStamps := resetStream(3000, 2, 10)
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			mk := func() Mergeable {
				s, err := f.mk()
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := mk()
			feedStream(s, first, firstStamps)
			resetState(t, s)
			s.Reset()
			fresh := mk()
			if g, w := resetState(t, s), resetState(t, fresh); g != w {
				t.Fatalf("reset sketch differs from an empty one:\n got %.200s\nwant %.200s", g, w)
			}
			s.Reset()
			fresh = mk()
			feedStream(s, second, secondStamps)
			feedStream(fresh, second, secondStamps)
			if g, w := resetState(t, s), resetState(t, fresh); g != w {
				t.Fatalf("reset sketch fed a stream differs from a fresh one:\n got %.200s\nwant %.200s", g, w)
			}

			shards := []Mergeable{mk(), mk()}
			for i := range first {
				sh := shards[i%2]
				if st, ok := sh.(Stamped); ok {
					st.ProcessAt(first[i], firstStamps[i])
				} else {
					sh.Process(first[i])
				}
			}
			for round := range 3 {
				s.Reset()
				fresh := mk()
				for _, sh := range shards {
					if err := s.Merge(sh); err != nil {
						t.Fatal(err)
					}
					if err := fresh.Merge(sh); err != nil {
						t.Fatal(err)
					}
				}
				if g, w := resetState(t, s), resetState(t, fresh); g != w {
					t.Fatalf("round %d: merging into a reset sketch differs from merging into a fresh one:\n got %.200s\nwant %.200s", round, g, w)
				}
				feedStream(shards[round%2], second[:500*(round+1)], secondStamps[:500*(round+1)])
			}
		})
	}
}
