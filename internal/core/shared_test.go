package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/geom"
	"repro/internal/window"
)

// sharedStream returns n points of 300 well-separated 2-D groups with
// stamps advancing every 8 points.
func sharedStream(n int) ([]geom.Point, []int64) {
	rng := rand.New(rand.NewPCG(41, 43))
	pts := make([]geom.Point, n)
	stamps := make([]int64, n)
	for i := range pts {
		g := rng.IntN(300)
		pts[i] = geom.Point{float64(g%20)*10 + rng.Float64()*0.3, float64(g/20)*10 + rng.Float64()*0.3}
		stamps[i] = int64(i / 8)
	}
	return pts, stamps
}

// TestProcessSharedMatchesProcess: copies of one stack fed batch by batch
// through one SharedAdj end byte-identical to the same copies fed point by
// point through their own searches, for Algorithm 1 and for time-window
// samplers.
func TestProcessSharedMatchesProcess(t *testing.T) {
	root := Options{Alpha: 1, Dim: 2, Seed: 5, Kappa: 2, StreamBound: 1 << 8}
	pts, stamps := sharedStream(4000)
	win := window.Window{Kind: window.Time, W: 200}
	const copies = 3
	var shared, alone [copies]*Sampler
	var wShared, wAlone [copies]*WindowSampler
	for c := range copies {
		o := root.Copy(uint64(c + 1))
		shared[c], _ = NewSampler(o)
		alone[c], _ = NewSampler(o)
		wShared[c], _ = NewWindowSampler(o, win)
		wAlone[c], _ = NewWindowSampler(o, win)
	}
	var adj SharedAdj
	for lo := 0; lo < len(pts); lo += 256 {
		hi := min(lo+256, len(pts))
		adj.Reset(hi - lo)
		for _, s := range shared {
			s.ProcessShared(pts[lo:hi], &adj)
		}
		adj.Reset(hi - lo)
		for _, ws := range wShared {
			ws.ProcessShared(pts[lo:hi], stamps[lo:hi], &adj)
		}
	}
	for c := range copies {
		for i, p := range pts {
			alone[c].Process(p)
			wAlone[c].ProcessAt(p, stamps[i])
		}
		if shared[c].R() == 1 {
			t.Fatalf("copy %d: R = 1, the stream never subsampled", c)
		}
		a, _ := shared[c].MarshalBinary()
		b, _ := alone[c].MarshalBinary()
		wa, _ := wShared[c].MarshalBinary()
		wb, _ := wAlone[c].MarshalBinary()
		if !bytes.Equal(a, b) || !bytes.Equal(wa, wb) {
			t.Fatalf("copy %d: shared search diverged from the copy's own (sampler equal %v, window equal %v)",
				c, bytes.Equal(a, b), bytes.Equal(wa, wb))
		}
	}
}

// TestSharedAdjRefusesOtherGrids: a SharedAdj serves only copies of one
// stack; a sampler that is not a copy, or a copy of another root seed,
// panics before it reads a list.
func TestSharedAdjRefusesOtherGrids(t *testing.T) {
	root := Options{Alpha: 1, Dim: 2, Seed: 5}
	other := root
	other.Seed = 6
	ps := []geom.Point{{0, 0}}
	for _, tc := range []struct {
		name        string
		first, next Options
	}{
		{"not a copy", root, root},
		{"another root seed", root.Copy(1), other.Copy(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var adj SharedAdj
			first, _ := NewSampler(tc.first)
			next, _ := NewSampler(tc.next)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			adj.Reset(len(ps))
			first.ProcessShared(ps, &adj)
			next.ProcessShared(ps, &adj)
		})
	}
	if !root.Copy(1).SharesGrid(root.Copy(2)) || !root.Copy(1).Copy(3).SharesGrid(root.Copy(2)) {
		t.Fatal("copies of one stack do not share its grid")
	}
	if root.Copy(1).SharesGrid(other.Copy(1)) || root.SharesGrid(root) {
		t.Fatal("SharesGrid holds across stacks or for a sampler that is not a copy")
	}
	if mergeCompatible(root.Copy(1), other.Copy(1)) || mergeCompatible(root.Copy(1), root) {
		t.Fatal("a copy merges with a copy of another stack, or with a sampler that is not a copy")
	}
}
