package engine

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/window"
	"repro/pkg/sketch"
)

// shuffledStampStream builds an adversarially ordered stamped stream:
// chunks of jittered-stamp points whose submission order is shuffled, so
// stamps arrive violating the per-producer monotonicity the happy path
// assumes, plus "ancient" straggler chunks (stamped far outside the
// final window) deliberately delivered near the end of the feed. The
// final chunk pins the stream's maximum stamp so the right window edge
// is exact. Returns the feed plus the ancient group ids.
func shuffledStampStream(rng *rand.Rand, liveGroupIDs, ancientGroupIDs int) (pts []geom.Point, stamps []int64, finalNow int64, ancient map[int]bool) {
	const (
		chunks     = 200
		chunkLen   = 40
		baseStart  = 1000
		stampStep  = 40
		jitterSpan = 300 // bounded ≪ W: late-but-live arrivals, not instant expiry
	)
	finalNow = 12000

	point := func(g int) geom.Point {
		return geom.Point{
			float64(g%64)*10 + (rng.Float64()-0.5)*0.5,
			float64(g/64)*10 + (rng.Float64()-0.5)*0.5,
		}
	}

	type chunk struct {
		pts    []geom.Point
		stamps []int64
	}
	var cs []chunk
	for c := 0; c < chunks; c++ {
		base := int64(baseStart + c*stampStep)
		ch := chunk{}
		for i := 0; i < chunkLen; i++ {
			ch.pts = append(ch.pts, point(int(rng.Int64N(int64(liveGroupIDs)))))
			ch.stamps = append(ch.stamps, base+rng.Int64N(2*jitterSpan+1)-jitterSpan)
		}
		cs = append(cs, ch)
	}
	// Ancient stragglers: groups 300.. with stamps far left of the final
	// window (finalNow − W = 7000 here) — nothing from them may survive
	// no matter how late they arrive in the feed.
	ancient = map[int]bool{}
	for a := 0; a < ancientGroupIDs; a++ {
		g := 300 + a
		ancient[g] = true
		ch := chunk{}
		for i := 0; i < chunkLen/2; i++ {
			ch.pts = append(ch.pts, point(g))
			ch.stamps = append(ch.stamps, 1+rng.Int64N(500))
		}
		cs = append(cs, ch)
	}
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	for _, ch := range cs {
		pts = append(pts, ch.pts...)
		stamps = append(stamps, ch.stamps...)
	}
	// The stream ends at the frontier: the closing chunk carries the
	// maximum stamp, so both processors finish with a full expiry pass
	// at the true right edge (real producers catch up eventually; a feed
	// ending mid-straggler would leave the sequential sampler's last
	// expiry at a stale clock).
	for i := 0; i < 4; i++ {
		pts = append(pts, point(0))
		stamps = append(stamps, finalNow)
	}
	return pts, stamps, finalNow, ancient
}

// TestWindowedShuffledStampsMatchSequential is the snippet-3 invariant
// under adversarial arrival order: when stamps arrive shuffled, late,
// and with ancient stragglers through ProcessStampedBatch, (1) nothing
// outside the final window survives — checked against an independent
// replay of the group-liveness rule (a group lives iff its newest stamp
// beats the window edge), (2) the sharded engine's served live-group
// set matches the single-threaded sampler fed the identical feed, raw
// and through the serving fold, and (3) queries only ever sample live
// groups.
//
// The late-data contract this pins down (docs/server.md): a late point
// never moves its group's latest stamp backwards, and each level keeps
// its expiry order sorted by that stamp, so the in-place sampler expires
// exactly what the per-entry window filter of every merge (shard
// snapshot, gateway fold) would.
func TestWindowedShuffledStampsMatchSequential(t *testing.T) {
	const liveIDs, ancientIDs = 200, 16
	win := window.Window{Kind: window.Time, W: 5000}
	for _, seed := range []uint64{3, 17, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			pts, stamps, finalNow, ancient := shuffledStampStream(rng, liveIDs, ancientIDs)

			// Independent model: a group is live iff its newest stamp
			// lies inside the final window, whatever order the stamps
			// arrived in.
			lastStamp := map[int]int64{}
			for i, p := range pts {
				g := int(p[1]/10+0.5)*64 + int(p[0]/10+0.5)
				if s, ok := lastStamp[g]; !ok || stamps[i] > s {
					lastStamp[g] = stamps[i]
				}
			}
			liveSet := map[int]bool{}
			for g, s := range lastStamp {
				if !win.Expired(s, finalNow) {
					liveSet[g] = true
				}
			}
			for g := range ancient {
				if liveSet[g] {
					t.Fatalf("model error: ancient group %d computed live", g)
				}
			}

			opts := core.Options{
				Alpha: 1, Dim: 2, Seed: seed * 977,
				StreamBound: len(pts) + 1,
				Kappa:       64, // threshold ≫ groups: exact regime
			}
			seq, err := sketch.NewWindowL0(opts, win)
			if err != nil {
				t.Fatal(err)
			}
			seq.ProcessStampedBatch(pts, stamps)

			eng, err := NewWindowSamplerEngine(opts, win, Config{Shards: 4, BatchSize: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			const chunk = 512
			for lo := 0; lo < len(pts); lo += chunk {
				hi := min(lo+chunk, len(pts))
				eng.ProcessStampedBatch(pts[lo:hi], stamps[lo:hi])
			}

			snap, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := liveGroups(t, snap), len(liveSet); got != want {
				t.Fatalf("sharded live groups %d != replay model %d", got, want)
			}
			// The raw in-place sampler expires exactly: its expiry order
			// stays sorted under late stamps.
			if got, want := liveGroups(t, seq), len(liveSet); got != want {
				t.Fatalf("raw sequential live groups %d != replay model %d", got, want)
			}
			// Fold the sequential sampler through the same merge the
			// serving path uses — that applies the exact per-entry
			// window filter, and the result must match the model and
			// the sharded engine exactly.
			fold, err := sketch.NewWindowL0(opts, win)
			if err != nil {
				t.Fatal(err)
			}
			if err := fold.Merge(seq); err != nil {
				t.Fatal(err)
			}
			if got, want := liveGroups(t, fold), len(liveSet); got != want {
				t.Fatalf("folded sequential live groups %d != replay model %d", got, want)
			}
			if got := snap.(*sketch.WindowL0).WindowSampler().Now(); got != finalNow {
				t.Fatalf("sharded clock %d != final stamp %d", got, finalNow)
			}
			if got := fold.WindowSampler().Now(); got != finalNow {
				t.Fatalf("folded sequential clock %d != final stamp %d", got, finalNow)
			}

			// Nothing outside the window is ever sampled — in particular
			// no ancient straggler group.
			for i := 0; i < 64; i++ {
				res, err := snap.Query()
				if err != nil {
					t.Fatal(err)
				}
				g := int(res.Sample[1]/10+0.5)*64 + int(res.Sample[0]/10+0.5)
				if ancient[g] {
					t.Fatalf("query %d sampled ancient straggler group %d (%v)", i, g, res.Sample)
				}
				if !liveSet[g] {
					t.Fatalf("query %d sampled expired group %d (%v)", i, g, res.Sample)
				}
			}
		})
	}
}
