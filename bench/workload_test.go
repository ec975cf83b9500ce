package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 7, 1), generate(w, 7, 1)
		if !bytes.Equal(a.bodies, b.bodies) || !slices.Equal(a.groups, b.groups) ||
			!slices.Equal(a.stamps, b.stamps) || !slices.Equal(a.first, b.first) {
			t.Errorf("%s: seed 7 generated two different streams", w.name)
		}
		da, _, _ := a.props(a.batches())
		db, _, _ := b.props(b.batches())
		if da != db {
			t.Errorf("%s: ground truth %d != %d for the same seed", w.name, da, db)
		}
		c := generate(w, 8, 1)
		if bytes.Equal(a.bodies, c.bodies) || slices.Equal(a.groups, c.groups) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", w.name)
		}
	}
}

func TestGroupsAreWellSeparated(t *testing.T) {
	if jitter >= alpha/2 {
		t.Fatalf("jitter %g is not below α/2", jitter)
	}
	for _, w := range workloads {
		in := generate(w, 3, 1)
		for i, g := range in.groups {
			off := i * w.dim * 8
			p := make([]float64, w.dim)
			for j := range p {
				p[j] = math.Float64frombits(binary.LittleEndian.Uint64(in.bodies[off+8*j:]))
				if d := math.Abs(p[j] - centre(int(g), j)); d > jitter {
					t.Fatalf("%s: point %d is %g from its centre in coordinate %d", w.name, i, d, j)
				}
			}
			if got := groupOf(p, w.groups); got != int(g) {
				t.Fatalf("%s: point %d of group %d decodes to group %d", w.name, i, g, got)
			}
		}
	}
	// Distinct groups differ in some base-64 digit, so their centres are
	// at least one grid spacing apart; check every pair of a 2-d grid.
	const groups = 512
	for g := 0; g < groups; g++ {
		for h := g + 1; h < groups; h++ {
			d := math.Hypot(centre(g, 0)-centre(h, 0), centre(g, 1)-centre(h, 1))
			if d < 10*alpha {
				t.Fatalf("centres of groups %d and %d are %g apart", g, h, d)
			}
		}
	}
}

func TestWindowStampsStayInsideTheWindow(t *testing.T) {
	w, _ := findWorkload("cluster-window")
	in := generate(w, 5, 2)
	late := 0
	for b, s := range in.stamps {
		slot := stampBase + int64(b)*stampStep
		if in.late[b] {
			late++
			if lag := slot - s; lag < lateMin-stampJitter || lag > lateMax+stampJitter {
				t.Fatalf("late batch %d lags its slot by %d", b, lag)
			}
		} else if d := s - slot; d < -stampJitter || d > stampJitter {
			t.Fatalf("batch %d is %d off its slot", b, d)
		}
	}
	if lateMax+stampJitter >= w.window {
		t.Fatalf("late batches (up to %d behind) would expire on arrival in a window of %d", lateMax+stampJitter, w.window)
	}
	if share := float64(late) / float64(len(in.stamps)); math.Abs(share-lateShare) > 0.02 {
		t.Errorf("late share %.3f, want about %.2f", share, lateShare)
	}
}
