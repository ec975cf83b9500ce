package core

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

// TestEntrySize pins entry at 160 bytes on 64-bit platforms: the cached
// hash levels fill the padding after accepted.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(entry{}); got != 160 {
		t.Fatalf("entry is %d bytes, want 160", got)
	}
}

// TestObserveWindowPickLate checks the window reservoir against a brute
// force when picks arrive out of stamp order: the skyline must be the
// picks no later pick outranks, in stamp order, where "later" means a
// larger stamp, or an equal stamp arriving afterwards.
func TestObserveWindowPickLate(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := range 200 {
		var e entry
		var all []windowPick // in arrival order
		for i := range 40 {
			wp := windowPick{stamp: rng.Int64N(30), prio: rng.Uint64N(50), p: geom.Point{float64(i)}}
			all = append(all, wp)
			e.observeWindowPick(wp.p, wp.stamp, wp.prio)

			var want []windowPick
			for j, x := range all {
				outranked := false
				for k, y := range all {
					later := y.stamp > x.stamp || (y.stamp == x.stamp && k > j)
					if later && y.prio >= x.prio {
						outranked = true
						break
					}
				}
				if !outranked {
					want = append(want, x)
				}
			}
			slices.SortStableFunc(want, func(a, b windowPick) int { return cmp.Compare(a.stamp, b.stamp) })
			if !slices.EqualFunc(e.wres, want, func(a, b windowPick) bool { return a.p[0] == b.p[0] }) {
				t.Fatalf("trial %d after %d picks: skyline %v, want %v", trial, i+1, e.wres, want)
			}
		}
	}
}
