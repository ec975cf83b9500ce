package grid

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/geom"
)

// AdjCoords runs AppendAdj's pruned DFS over coordinate vectors: it
// starts from CoordOf(p) and materializes every cell it reaches, so it
// is the reference for AppendAdj's cell order and keys.
func (g *Grid) AdjCoords(p geom.Point, radius float64) []Coord {
	base := g.CoordOf(p)
	maxOff := int64(math.Ceil(radius / g.side))
	if maxOff < 1 {
		maxOff = 1
	}
	r2 := radius * radius
	coord := base.Clone()
	var out []Coord
	var walk func(i int, acc float64)
	walk = func(i int, acc float64) {
		if acc > r2 {
			return
		}
		if i == len(p) {
			out = append(out, coord.Clone())
			return
		}
		dLo := p[i] - (g.shift[i] + float64(base[i])*g.side)
		dHi := g.side - dLo
		coord[i] = base[i]
		walk(i+1, acc)
		for o := int64(1); o <= maxOff; o++ {
			d := dLo + float64(o-1)*g.side
			if acc+d*d > r2 {
				break
			}
			coord[i] = base[i] - o
			walk(i+1, acc+d*d)
		}
		for o := int64(1); o <= maxOff; o++ {
			d := dHi + float64(o-1)*g.side
			if acc+d*d > r2 {
				break
			}
			coord[i] = base[i] + o
			walk(i+1, acc+d*d)
		}
		coord[i] = base[i]
	}
	walk(0, 0)
	return out
}

// TestAdjMatchesNaive is the differential test: the pruned DFS must return
// exactly the cells the exhaustive enumeration finds, across dimensions,
// side/radius regimes (side ≥ radius and side < radius) and random shifts.
// AppendAdj must return the keys of AdjCoords's cells in AdjCoords's
// order, and AdjNaive's keys as a set.
func TestAdjMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	cases := []struct {
		dim    int
		side   float64
		radius float64
	}{
		{1, 1, 0.4},
		{1, 0.5, 1},   // radius = 2·side → offsets up to ±2
		{2, 0.5, 1},   // paper's Section 2.1 regime (side α/2, radius α)
		{2, 1, 1},     // radius = side
		{3, 2, 1},     // side > radius (Section 4 style)
		{3, 0.7, 1.5}, // radius > 2·side
		{5, 5, 1},     // side = d·α with α=1
		{7, 7, 1},
	}
	for _, c := range cases {
		for seed := uint64(0); seed < 3; seed++ {
			g := New(c.dim, c.side, seed)
			for i := 0; i < 40; i++ {
				p := randPoint(rng, c.dim, 4)
				coords := g.AdjCoords(p, c.radius)
				got := coordSet(coords)
				want := coordSet(g.AdjNaiveCoords(p, c.radius))
				if !sameSet(got, want) {
					t.Fatalf("dim=%d side=%g radius=%g seed=%d p=%v:\n got %v\nwant %v",
						c.dim, c.side, c.radius, seed, p, got, want)
				}
				keys := g.AppendAdj(nil, p, c.radius)
				if len(keys) != len(coords) {
					t.Fatalf("dim=%d side=%g radius=%g seed=%d p=%v: AppendAdj gave %d keys, AdjCoords %d cells",
						c.dim, c.side, c.radius, seed, p, len(keys), len(coords))
				}
				for j, k := range keys {
					if k != coords[j].Key() {
						t.Fatalf("dim=%d side=%g radius=%g seed=%d p=%v: key %d is %x, want Key(%v) = %x",
							c.dim, c.side, c.radius, seed, p, j, k, coords[j], coords[j].Key())
					}
				}
				if got, want := keySet(keys), keySet(g.AdjNaive(p, c.radius)); !sameSet(got, want) {
					t.Fatalf("dim=%d side=%g radius=%g seed=%d p=%v: AppendAdj keys\n got %v\nwant %v",
						c.dim, c.side, c.radius, seed, p, got, want)
				}
			}
		}
	}
}

func TestAdjIncludesOwnCell(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	g := New(4, 1.5, 9)
	for i := 0; i < 100; i++ {
		p := randPoint(rng, 4, 10)
		own := g.CellOf(p)
		found := false
		for _, c := range g.AppendAdj(nil, p, 0.5) {
			if c == own {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("AppendAdj(%v) does not include cell(p)", p)
		}
	}
}

func TestAdjNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	g := New(3, 0.6, 21)
	for i := 0; i < 100; i++ {
		p := randPoint(rng, 3, 5)
		keys := g.AppendAdj(nil, p, 1.1)
		seen := make(map[CellKey]bool, len(keys))
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("duplicate cell key in AppendAdj(%v)", p)
			}
			seen[k] = true
		}
	}
}

// TestAdjSoundAndComplete verifies the geometric definition directly:
// every returned cell is within radius of p, and any point q within radius
// of p lives in a returned cell.
func TestAdjSoundAndComplete(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	g := New(3, 1, 31)
	const radius = 1.2
	for i := 0; i < 60; i++ {
		p := randPoint(rng, 3, 3)
		coords := g.AdjCoords(p, radius)
		for _, c := range coords {
			if d := g.CellDist(p, c); d > radius+1e-9 {
				t.Fatalf("cell %v at distance %g > radius", c, d)
			}
		}
		keySet := make(map[CellKey]bool, len(coords))
		for _, c := range coords {
			keySet[c.Key()] = true
		}
		// Sample points in the ball; their cells must be covered.
		for j := 0; j < 50; j++ {
			q := make(geom.Point, 3)
			for k := range q {
				q[k] = p[k] + (rng.Float64()-0.5)*2*radius/2
			}
			if geom.Dist(p, q) <= radius && !keySet[g.CellOf(q)] {
				t.Fatalf("point %v within radius of %v but its cell not in adj", q, p)
			}
		}
	}
}

// TestAdjSizeConstantHighDim checks the Lemma 4.2 behaviour: with side d·α
// and radius α the expected |adj| stays O(1) — empirically ≈ (1+2/d)^d < e².
func TestAdjSizeConstantHighDim(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 41))
	for _, d := range []int{5, 8, 12, 20} {
		alpha := 1.0
		g := New(d, float64(d)*alpha, uint64(d))
		total := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			p := randPoint(rng, d, 20)
			total += len(g.AppendAdj(nil, p, alpha))
		}
		avg := float64(total) / trials
		if avg > 9 { // e² ≈ 7.39 plus slack
			t.Errorf("d=%d: average |adj| = %.2f, want O(1) ≈ e²", d, avg)
		}
	}
}

// TestAdj2DRegimeSize checks the Section 2.1 bound |adj(p)| ≤ 25 for side
// α/2 and radius α in 2 dimensions.
func TestAdj2DRegimeSize(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 47))
	g := New(2, 0.5, 51)
	for i := 0; i < 300; i++ {
		p := randPoint(rng, 2, 5)
		n := len(g.AppendAdj(nil, p, 1))
		if n < 9 || n > 25 {
			t.Fatalf("2D |adj| = %d, want within [9, 25]", n)
		}
	}
}

// TestAppendAdjAllocs pins the allocation-free search: appending into a
// buffer with room allocates nothing and keeps the buffer's prefix.
func TestAppendAdjAllocs(t *testing.T) {
	g := New(3, 0.7, 5)
	p := geom.Point{1.3, -2.6, 0.45}
	buf := make([]CellKey, 1, 256)
	buf[0] = 42
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		n = len(g.AppendAdj(buf[:1], p, 1.5))
	})
	if allocs != 0 {
		t.Errorf("AppendAdj into a buffer with room: %v allocs/op, want 0", allocs)
	}
	if want := len(g.AppendAdj(nil, p, 1.5)) + 1; n != want || buf[0] != 42 {
		t.Errorf("AppendAdj appended %d keys after the prefix %d, want %d after 42", n-1, buf[0], want-1)
	}
}

func keySet(ks []CellKey) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprint(uint64(k))
	}
	sort.Strings(out)
	return out
}

func coordSet(cs []Coord) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprint([]int64(c))
	}
	sort.Strings(out)
	return out
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
