package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
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

// TestCellIndexAllocs: filing and unfiling entries of distinct cells in
// a cell index with room allocates nothing, also when their probe runs
// collide. (A cell's second entry allocates its overflow.)
func TestCellIndexAllocs(t *testing.T) {
	var ix cellIndex
	ix.reserve(64)
	es := make([]*entry, 48)
	rng := rand.New(rand.NewPCG(3, 9))
	for i := range es {
		c := grid.CellKey(rng.Uint64())
		if i < len(indexPool) {
			c = indexPool[i] // shared homes and runs wrapping past the last slot
		}
		es[i] = &entry{cell: c, rep: geom.Point{float64(i)}}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, e := range es {
			ix.add(e)
		}
		for _, e := range es {
			ix.remove(e)
		}
	})
	if allocs != 0 {
		t.Errorf("add and remove on a cell index with room: %v allocs/op, want 0", allocs)
	}
	if ix.n != 0 || len(ix.slots) != 128 {
		t.Fatalf("index holds %d cells in %d slots after the runs, want 0 in 128", ix.n, len(ix.slots))
	}
}

// TestWindowRegisterAllocs: in a time window at steady state, where each
// point is a fresh group and one group expires per point, registering a
// group, with the splits and promotions it sets off, allocates at most
// 3 objects per point: the entry, its adjacency list and amortized
// growth. Keeping the levels in place costs no allocation per entry.
func TestWindowRegisterAllocs(t *testing.T) {
	const w = 256
	ws, err := NewWindowSampler(Options{Alpha: 1, Dim: 2, Seed: 29, StreamBound: 1 << 12}, window.Window{Kind: window.Time, W: w})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, 1<<14)
	for i := range pts {
		pts[i] = geom.Point{float64(i%128) * 10, float64(i/128) * 10}
	}
	i := 0
	next := func() {
		ws.ProcessAt(pts[i%len(pts)], int64(i))
		i++
	}
	for range 4 * w {
		next()
	}
	allocs := testing.AllocsPerRun(2000, next)
	if allocs > 3 {
		t.Errorf("ProcessAt registering a fresh group: %v allocs/op, want ≤ 3", allocs)
	}
	if ws.MaxNonEmptyLevel() < 2 {
		t.Fatalf("accept sets %v: the registrations promoted nothing past level 1", ws.AcceptSizes())
	}
	t.Logf("%v allocs/op, accept sets %v", allocs, ws.AcceptSizes())
}

// TestUnmarshalWindowAllocs: decoding a window sampler allocates in
// proportion to its levels, not its entries: at most 16 objects per
// level, on a sampler holding many more entries than that, also under
// RandomRepresentative, whose entries carry skylines of picks.
func TestUnmarshalWindowAllocs(t *testing.T) {
	for _, rr := range []bool{false, true} {
		t.Run(fmt.Sprintf("random-rep=%v", rr), func(t *testing.T) {
			opts := Options{Alpha: 1, Dim: 2, Seed: 37, StreamBound: 1 << 12, RandomRepresentative: rr}
			ws, err := NewWindowSampler(opts, window.Window{Kind: window.Time, W: 4096})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(5, 7))
			for i := range 1 << 14 {
				g := rng.IntN(2048)
				ws.ProcessAt(geom.Point{float64(g%64)*10 + rng.Float64()/4, float64(g/64)*10 + rng.Float64()/4}, int64(i/4))
			}
			entries, picks, levels := 0, 0, ws.Levels()
			for _, lv := range ws.levels {
				entries += lv.Size()
				for _, e := range lv.order {
					picks += len(e.wres)
				}
			}
			if entries < 64*levels {
				t.Fatalf("%d entries over %d levels, want ≥ %d", entries, levels, 64*levels)
			}
			if rr && picks < entries {
				t.Fatalf("%d skyline picks for %d entries, want at least one each", picks, entries)
			}
			blob, err := ws.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := UnmarshalWindowSampler(blob); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > float64(16*levels) {
				t.Errorf("UnmarshalWindowSampler: %v allocs for %d entries over %d levels, want ≤ %d", allocs, entries, levels, 16*levels)
			}
			t.Logf("%v allocs for %d entries (%d skyline picks) over %d levels", allocs, entries, picks, levels)
		})
	}
}
