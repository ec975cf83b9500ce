package core

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/window"
)

// loadedSampler returns a sampler that has seen 4096 distinct groups, far
// enough for several rate doublings.
func loadedSampler(t *testing.T) *Sampler {
	t.Helper()
	s, err := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 21, Kappa: 2, StreamBound: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4096 {
		s.Process(geom.Point{float64(i%64) * 10, float64(i/64) * 10})
	}
	if s.R() < 16 {
		t.Fatalf("R = %d after 4096 groups, want ≥ 16", s.R())
	}
	return s
}

// TestProcessStoredGroupAllocs: a point of a stored group costs one
// adjacency search into the sampler's scratch and allocates nothing, also
// when the duplicate cache misses.
func TestProcessStoredGroupAllocs(t *testing.T) {
	s := loadedSampler(t)
	if len(s.entries) < 2 {
		t.Fatalf("%d stored entries, want ≥ 2", len(s.entries))
	}
	a, b := s.entries[0].rep, s.entries[1].rep
	size := len(s.entries)
	allocs := testing.AllocsPerRun(100, func() {
		s.Process(a) // lastHit is b's entry: the cache misses
		s.Process(b)
	})
	if allocs != 0 {
		t.Errorf("Process of stored groups, alternating: %v allocs/op, want 0", allocs)
	}
	if len(s.entries) != size || s.lastHit != s.entries[1] {
		t.Fatal("the alternating points did not find their stored groups")
	}
}

// TestProcessIgnoredPointAllocs: a point whose adjacency holds no sampled
// cell is dropped after the search and the level check, allocating
// nothing.
func TestProcessIgnoredPointAllocs(t *testing.T) {
	s := loadedSampler(t)
	var p geom.Point
	for i := 0; p == nil; i++ {
		q := geom.Point{-1000 - 7.3*float64(i), 333}
		if !s.anySampled(s.spc.Adjacent(nil, q)) {
			p = q
		}
	}
	size := len(s.entries)
	allocs := testing.AllocsPerRun(100, func() { s.Process(p) })
	if allocs != 0 {
		t.Errorf("Process of an ignored point: %v allocs/op, want 0", allocs)
	}
	if len(s.entries) != size {
		t.Fatal("the ignored point was stored")
	}
}

// TestWindowRefreshAllocs: a point that refreshes a stored group of a
// time-window sampler allocates nothing.
func TestWindowRefreshAllocs(t *testing.T) {
	ws, err := NewWindowSampler(Options{Alpha: 1, Dim: 2, Seed: 23}, window.Window{Kind: window.Time, W: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 64 {
		ws.ProcessAt(geom.Point{float64(i) * 10, 0}, 1)
	}
	p := geom.Point{30.1, 0.1} // group 3
	stamp := int64(1)
	words := ws.SpaceWords()
	allocs := testing.AllocsPerRun(100, func() {
		stamp++
		ws.ProcessAt(p, stamp)
	})
	if allocs != 0 {
		t.Errorf("ProcessAt refreshing a stored group: %v allocs/op, want 0", allocs)
	}
	if ws.SpaceWords() != words || ws.Now() != stamp {
		t.Fatalf("refresh changed the sketch size (%d → %d words) or missed the clock", words, ws.SpaceWords())
	}
}
