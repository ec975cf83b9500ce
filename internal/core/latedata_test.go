package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/window"
)

// lateStream is a time-window stream shaped like bench/'s cluster-window
// workload: Zipf-distributed groups on a 10α lattice, batches stamped
// stampStep apart with ±200 jitter, and 10% of batches 1000–3000 stamps
// late.
type lateStream struct {
	rng *rand.Rand
	cdf []float64
	b   int
}

const (
	lateGroups    = 512
	lateBatch     = 50
	lateStampStep = 10
	lateWidth     = 5000
)

func newLateStream(seed uint64) *lateStream {
	cdf := make([]float64, lateGroups)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -1.2)
		cdf[i] = total
	}
	return &lateStream{rng: rand.New(rand.NewPCG(seed, 0x1a7e)), cdf: cdf}
}

// next returns the next batch, its stamp, and each point's group.
func (s *lateStream) next() ([]geom.Point, int64, []int) {
	stamp := 1_000_000 + int64(s.b)*lateStampStep + s.rng.Int64N(401) - 200
	if s.b > 0 && s.rng.Float64() < 0.10 {
		stamp -= 1000 + s.rng.Int64N(2001)
	}
	s.b++
	pts := make([]geom.Point, lateBatch)
	groups := make([]int, lateBatch)
	for i := range pts {
		g := min(sort.SearchFloat64s(s.cdf, s.rng.Float64()*s.cdf[len(s.cdf)-1]), lateGroups-1)
		groups[i] = g
		pts[i] = geom.Point{
			float64(g%64)*10 + (2*s.rng.Float64()-1)/4,
			float64(g/64)*10 + (2*s.rng.Float64()-1)/4,
		}
	}
	return pts, stamp, groups
}

// lateGroupOf inverts lateStream's lattice.
func lateGroupOf(p geom.Point) int {
	return int(math.Round(p[1]/10))*64 + int(math.Round(p[0]/10))
}

// TestWindowLateDataNeverServesExpired is the sliding-window invariant
// of a chain sampler (nothing outside the window is ever sampled) under
// late data. After every batch of a jittered stream with late batches:
// each level's expiry order is ascending in lastStamp, no stored entry
// is expired at Now(), and no query returns a point of a group that has
// no point in the window.
func TestWindowLateDataNeverServesExpired(t *testing.T) {
	win := window.Window{Kind: window.Time, W: lateWidth}
	for _, randomRep := range []bool{false, true} {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("random-rep=%v/seed=%d", randomRep, seed), func(t *testing.T) {
				opts := Options{Alpha: 1, Dim: 2, Seed: seed, StreamBound: 1 << 23, HighDim: true, RandomRepresentative: randomRep}
				ws, err := NewWindowSampler(opts, win)
				if err != nil {
					t.Fatal(err)
				}
				src := newLateStream(seed)
				newest := make(map[int]int64) // group → its newest stamp fed so far
				for b := range 1500 {
					pts, stamp, groups := src.next()
					for i, p := range pts {
						ws.ProcessAt(p, stamp)
						if s, ok := newest[groups[i]]; !ok || stamp > s {
							newest[groups[i]] = stamp
						}
					}
					now := ws.Now()
					if err := checkLevels(ws); err != nil {
						t.Fatalf("batch %d: %v", b, err)
					}
					for range 4 {
						p, err := ws.Query()
						if err != nil {
							t.Fatalf("batch %d: %v", b, err)
						}
						g := lateGroupOf(p)
						if s, ok := newest[g]; !ok || win.Expired(s, now) {
							t.Fatalf("batch %d: query returned group %d, newest point %d, expired at %d", b, g, s, now)
						}
					}
				}
			})
		}
	}
}

// TestWindowLatePoints pins the three late-point cases of the late-data
// contract on a width-100 window: a point already expired at the clock
// is dropped; a late point that moves its group forward moves the
// group's entry to its sorted expiry position; a late point older than
// its group's latest point leaves the group's expiry alone.
func TestWindowLatePoints(t *testing.T) {
	type pt struct {
		x     float64 // the group's centre is (x, x)
		stamp int64
	}
	cases := []struct {
		name   string
		stream []pt
		want   map[float64]bool // groups queries may return; the rest never
	}{
		{"beyond-window", []pt{{0, 200}, {50, 50}}, map[float64]bool{0: true}},
		{"moves-forward", []pt{{0, 0}, {20, 50}, {40, 90}, {0, 60}, {60, 165}}, map[float64]bool{40: true, 60: true}},
		{"older-than-latest", []pt{{0, 100}, {20, 120}, {0, 30}, {40, 180}}, map[float64]bool{0: true, 20: true, 40: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws, err := NewWindowSampler(Options{Alpha: 1, Dim: 2, Seed: 3, HighDim: true}, window.Window{Kind: window.Time, W: 100})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.stream {
				ws.ProcessAt(geom.Point{p.x, p.x}, p.stamp)
			}
			seen := make(map[float64]int)
			for range 200 {
				p, err := ws.Query()
				if err != nil {
					t.Fatal(err)
				}
				seen[p[0]]++
			}
			for x, n := range seen {
				if !tc.want[x] {
					t.Errorf("group %v returned %d of 200 times; it has no point in the window", x, n)
				}
			}
			for x := range tc.want {
				if seen[x] == 0 {
					t.Errorf("group %v never returned; it has a point in the window", x)
				}
			}
		})
	}
}
