package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/hash"
	"repro/pkg/sketch"
)

// f0Stream draws n points from numGroups groups, uniformly, in the shape
// of bench/'s daemon-f0 workload: group g is centred on a 3-dimensional
// grid of spacing 10α (coordinate j is g's j-th base-64 digit) and its
// points are jittered by at most ±α/4 per coordinate, so the groups are
// well separated.
func f0Stream(numGroups, n int, seed uint64) []geom.Point {
	const alpha = 1.0
	rng := rand.New(rand.NewPCG(seed, seed^0xf0))
	pts := make([]geom.Point, n)
	for i := range pts {
		g := rng.IntN(numGroups)
		p := make(geom.Point, 3)
		for j := range p {
			digit := (g >> (6 * j)) & 63
			p[j] = float64(digit)*10*alpha + (2*rng.Float64()-1)*alpha/4
		}
		pts[i] = p
	}
	return pts
}

// centreRouter routes a point of f0Stream by its group's centre, so that
// every group lands whole on one shard.
type centreRouter struct{}

func (centreRouter) Route(p geom.Point) uint64 {
	var key uint64
	for _, v := range p {
		key = hash.Mix64(key ^ uint64(int64(math.Round(v/10))))
	}
	return key
}

// TestF0EngineMatchesSequential: on well-separated data, the merged
// snapshot of an f0 engine at 1, 2 and 4 shards answers exactly what one
// Median fed point by point answers, at sketchd's defaults (ε = 0.25, 9
// copies, HighDim, m = 2^23). The same stream fed through ProcessBatch and
// through per-point Process serializes to identical bytes: the copies'
// shared adjacency search gives each copy the lists its own search would.
//
// The engines route by group centre. The default routing grid cuts about
// 1.5% of these groups across two shards, and the fold keeps the lower
// shard's representative of a cut group where one pass keeps the group's
// first point; on some seeds that moves one sampled group (one R step of
// the estimate). Exactness is a property of whole groups, so the check
// routes them whole; TestShardedMatchesSequentialSampled bounds the
// default router.
func TestF0EngineMatchesSequential(t *testing.T) {
	const eps, copies = 0.25, 9
	for _, c := range []struct {
		groups int
		seeds  uint64
	}{{300, 3}, {5_000, 3}, {40_000, 1}} {
		for seed := uint64(1); seed <= c.seeds; seed++ {
			t.Run(fmt.Sprintf("groups=%d/seed=%d", c.groups, seed), func(t *testing.T) {
				pts := f0Stream(c.groups, c.groups, seed)
				opts := core.Options{Alpha: 1, Dim: 3, Seed: seed, StreamBound: 1 << 23, HighDim: true}

				perPoint, err := sketch.NewF0(opts, eps, copies)
				if err != nil {
					t.Fatal(err)
				}
				batched, err := sketch.NewF0(opts, eps, copies)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pts {
					perPoint.Process(p)
					if i%200 == 199 || i == len(pts)-1 {
						batched.ProcessBatch(pts[i-i%200 : i+1])
					}
				}
				want, err := perPoint.Median().Estimate()
				if err != nil {
					t.Fatal(err)
				}
				a, err := perPoint.Serialize()
				if err != nil {
					t.Fatal(err)
				}
				b, err := batched.Serialize()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("ProcessBatch and per-point Process serialize differently (%d vs %d bytes)", len(b), len(a))
				}

				for _, shards := range []int{1, 2, 4} {
					eng, err := NewF0Engine(opts, eps, copies, Config{Shards: shards, BatchSize: 200, Router: centreRouter{}})
					if err != nil {
						t.Fatal(err)
					}
					eng.ProcessBatch(pts)
					res, err := eng.Query()
					eng.Close()
					if err != nil {
						t.Fatal(err)
					}
					if res.Estimate != want {
						t.Errorf("shards=%d: estimate %g, sequential %g", shards, res.Estimate, want)
					}
				}
			})
		}
	}
}
