package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/geom"
	"repro/internal/window"
)

// TestRehashCascade forces multiple consecutive rate doublings from a
// single arriving point: with a tiny threshold, R must double until the
// accept set fits, and the classification invariant must hold after each.
func TestRehashCascade(t *testing.T) {
	// Threshold Kappa(1)·log2(4) = 2.
	s, err := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 3, Kappa: 1, StreamBound: 4})
	if err != nil {
		t.Fatal(err)
	}
	if thr := s.opts.acceptThreshold(); thr != 2 {
		t.Fatalf("threshold = %d, want 2", thr)
	}
	for g := 0; g < 500; g++ {
		s.Process(geom.Point{float64(g) * 10, 0})
		if s.AcceptSize() > 2 {
			t.Fatalf("after group %d: |Sacc| = %d > 2", g, s.AcceptSize())
		}
		mustCheck(t, s, fmt.Sprintf("group %d", g))
	}
	if s.Rehashes() < 5 {
		t.Fatalf("only %d rehashes for 500 groups at threshold 2", s.Rehashes())
	}
	if s.R() < 32 {
		t.Fatalf("R = %d, expected ≥ 32", s.R())
	}
	// Invariant after the cascade.
	for _, e := range s.entries {
		if e.accepted != s.ls.SampledAt(uint64(e.cell), s.r) {
			t.Fatal("classification broken after cascades")
		}
	}
}

// TestFixedWindowMatchOnly verifies the WindowSampler level semantics on
// the building block directly: a match-only instance never registers
// fresh groups but refreshes existing entries.
func TestFixedWindowMatchOnly(t *testing.T) {
	fw, _ := NewFixedWindow(Options{Alpha: 1, Dim: 2, Seed: 5}, seqWin(100), 1)
	fw.matchOnly = true
	if fw.Process(geom.Point{0, 0}, 1) {
		t.Fatal("match-only instance registered a fresh group")
	}
	if fw.Size() != 0 {
		t.Fatal("match-only instance stored an entry")
	}
	// Seed an entry through the normal path, then match-only updates work.
	fw.matchOnly = false
	if !fw.Process(geom.Point{0, 0}, 2) {
		t.Fatal("registration failed")
	}
	fw.matchOnly = true
	if !fw.Process(geom.Point{0.1, 0}, 3) {
		t.Fatal("match-only instance failed to match an existing group")
	}
	es := fw.entriesByStamp()
	if len(es) != 1 || es[0].lastStamp != 3 {
		t.Fatalf("entry not refreshed: %+v", es[0])
	}
}

// TestWindowSamplerBurstExpiry jumps the time-based clock far forward and
// checks that mass expiry across all levels leaves a clean, working state.
func TestWindowSamplerBurstExpiry(t *testing.T) {
	ws, _ := NewWindowSampler(Options{Alpha: 1, Dim: 2, Seed: 7, Kappa: 1, StreamBound: 16},
		window.Window{Kind: window.Time, W: 100})
	rng := rand.New(rand.NewPCG(1, 1))
	// Era 1: many groups, forcing promotions to upper levels.
	for i := int64(1); i <= 500; i++ {
		g := rng.IntN(60)
		ws.ProcessAt(geom.Point{float64(g) * 10, 0}, i)
	}
	// Jump 10 windows into the future with a single point.
	ws.ProcessAt(geom.Point{9999, 0}, 2000)
	for l, lv := range ws.levels {
		lv.Expire(2000)
		if l > 0 && lv.Size() != 0 {
			t.Fatalf("level %d still holds %d expired entries", l, lv.Size())
		}
	}
	got, err := ws.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9999 {
		t.Fatalf("sample %v, want the only live point", got)
	}
	if live := ws.SpaceWords(); live > 40 {
		t.Fatalf("%d live words after mass expiry, want a single entry's worth", live)
	}
}

// TestGridSideOverride checks that an explicit GridSide wins over both
// mode defaults.
func TestGridSideOverride(t *testing.T) {
	s, err := NewSampler(Options{Alpha: 2, Dim: 3, GridSide: 7.5, HighDim: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Options().GridSide; got != 7.5 {
		t.Fatalf("GridSide = %g, want the override 7.5", got)
	}
}

// TestSamplerSpaceReturnsAfterDrops verifies the word meter shrinks when
// rate doublings drop entries.
func TestSamplerSpaceReturnsAfterDrops(t *testing.T) {
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 11, Kappa: 1, StreamBound: 4})
	var maxLive int
	for g := 0; g < 2000; g++ {
		s.Process(geom.Point{float64(g) * 10, 0})
		if live := s.SpaceWords(); live > maxLive {
			maxLive = live
		}
	}
	if s.SpaceWords() > maxLive {
		t.Fatal("live exceeded recorded max")
	}
	if s.PeakSpaceWords() < maxLive {
		t.Fatal("peak below observed live maximum")
	}
	// With threshold 2 and R ≈ 1024 at the end, the expected live state is
	// |Sacc| ≤ 2 plus E[|Srej|] ≈ groups·|adj|/R ≈ 2000·21/1024 ≈ 41
	// entries (the Lemma 2.6 constant factor) — a few thousand words.
	// Storing all 2000 groups would cost ≈ 56 000 words; demand an order
	// of magnitude less.
	if s.SpaceWords() > 5000 {
		t.Fatalf("live words %d; entries not dropped on rehash", s.SpaceWords())
	}
}

// TestWindowSamplerSequenceStamping checks Process assigns consecutive
// arrival indices (the sequence-window stamp contract).
func TestWindowSamplerSequenceStamping(t *testing.T) {
	ws, _ := NewWindowSampler(Options{Alpha: 1, Dim: 2, Seed: 13}, seqWin(3))
	for i := 0; i < 10; i++ {
		ws.Process(geom.Point{float64(i) * 10, 0})
	}
	if ws.Processed() != 10 || ws.now != 10 {
		t.Fatalf("processed %d, now %d; want 10, 10", ws.Processed(), ws.now)
	}
	// Only the last 3 points are sampleable.
	for trial := 0; trial < 30; trial++ {
		q, err := ws.Query()
		if err != nil {
			t.Fatal(err)
		}
		if q[0] < 70 {
			t.Fatalf("expired point %v sampled", q)
		}
	}
}
