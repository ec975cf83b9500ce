package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/window"
	"repro/pkg/sketch"
)

// snapshotEngines builds, for each family the engine serves, a
// constructor of an engine at a given shard count.
func snapshotEngines() []struct {
	name     string
	windowed bool
	mk       func(shards int) (*Engine, error)
} {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 5, Kappa: 2, K: 2, StreamBound: 1 << 12, HighDim: true}
	rr := opts
	rr.RandomRepresentative = true
	win := window.Window{Kind: window.Time, W: 60} // 6 batches
	return []struct {
		name     string
		windowed bool
		mk       func(shards int) (*Engine, error)
	}{
		{"l0", false, func(n int) (*Engine, error) { return NewSamplerEngine(opts, Config{Shards: n}) }},
		{"l0/random-rep", false, func(n int) (*Engine, error) { return NewSamplerEngine(rr, Config{Shards: n}) }},
		{"f0", false, func(n int) (*Engine, error) { return NewF0Engine(opts, 0.5, 5, Config{Shards: n}) }},
		{"windowl0", true, func(n int) (*Engine, error) { return NewWindowSamplerEngine(opts, win, Config{Shards: n}) }},
		{"windowf0", true, func(n int) (*Engine, error) { return NewWindowF0Engine(opts, win, 1, Config{Shards: n}) }},
	}
}

// snapshotBatch returns the i-th 40-point batch of a stream over 1,200
// groups 10 apart, in fresh memory (a request's slab), and its stamp.
func snapshotBatch(rng *rand.Rand, i int) ([]geom.Point, int64) {
	pts := make([]geom.Point, 40)
	slab := make([]float64, 2*len(pts))
	for j := range pts {
		g := rng.IntN(1200)
		pts[j] = slab[2*j : 2*j+2 : 2*j+2]
		pts[j][0] = float64(g%60)*10 + (rng.Float64()-0.5)*0.4
		pts[j][1] = float64(g/60)*10 + (rng.Float64()-0.5)*0.4
	}
	return pts, int64(10 * i)
}

// ingestSnapshotBatch feeds one batch, stamped on a windowed engine.
func ingestSnapshotBatch(e *Engine, rng *rand.Rand, i int) {
	pts, stamp := snapshotBatch(rng, i)
	if e.Stamped() {
		stamps := make([]int64, len(pts))
		for j := range stamps {
			stamps[j] = stamp
		}
		e.ProcessStampedBatch(pts, stamps)
		return
	}
	e.ProcessBatch(pts)
}

// snapshotState renders a sketch's bytes and a run of its answers, query
// RNG draws included.
func snapshotState(t *testing.T, s sketch.Sketch) string {
	t.Helper()
	blob, err := s.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%x", blob)
	for range 6 {
		res, err := s.Query()
		fmt.Fprintf(&b, " %v/%v/%v", res.Sample, res.Estimate, err)
	}
	if l, ok := s.(*sketch.L0); ok {
		q, err := l.QueryK(2)
		fmt.Fprintf(&b, " %v/%v", q, err)
	}
	return b.String()
}

// TestCachedSnapshotMatchesFresh: the cached snapshot, rebuilt in place
// on every epoch, holds exactly what Engine.Snapshot builds fresh at the
// same epoch: the same bytes and the same answers, query RNG draws
// included, across 50 rebuilds interleaved with ingest and with cache
// hits that advance the cached sketch's query RNG. The cached sketch is
// the same object throughout: it is rebuilt in place.
func TestCachedSnapshotMatchesFresh(t *testing.T) {
	for _, fam := range snapshotEngines() {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", fam.name, shards), func(t *testing.T) {
				eng, err := fam.mk(shards)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				rng := rand.New(rand.NewPCG(uint64(shards), 77))
				var cached sketch.Sketch
				for i := range 50 {
					ingestSnapshotBatch(eng, rng, i)
					var got string
					err := eng.WithSnapshotEpoch(func(s sketch.Sketch, ep int64) error {
						if cached != nil && s != cached {
							t.Fatalf("rebuild %d served a new sketch, not the cached one rebuilt in place", i)
						}
						cached = s
						if ep != eng.Epoch() {
							t.Fatalf("rebuild %d stamped epoch %d, engine at %d", i, ep, eng.Epoch())
						}
						got = snapshotState(t, s)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := eng.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if want := snapshotState(t, fresh); got != want {
						t.Fatalf("rebuild %d: cached snapshot differs from a fresh one:\n got %.200s\nwant %.200s", i, got, want)
					}
					if i%3 == 0 {
						eng.Query() // a hit: advances the cached sketch's RNG
					}
				}
				if misses := eng.SnapshotMisses(); misses != 50 {
					t.Fatalf("%d rebuilds, want 50", misses)
				}
			})
		}
	}
}

// TestSnapshotIsCallerOwned: a sketch Engine.Snapshot returns is the
// caller's: later ingest and cached rebuilds leave its bytes unchanged.
func TestSnapshotIsCallerOwned(t *testing.T) {
	for _, fam := range snapshotEngines() {
		t.Run(fam.name, func(t *testing.T) {
			eng, err := fam.mk(2)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			rng := rand.New(rand.NewPCG(3, 79))
			for i := range 20 {
				ingestSnapshotBatch(eng, rng, i)
			}
			snap, err := eng.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			before, err := snap.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			for i := 20; i < 40; i++ {
				ingestSnapshotBatch(eng, rng, i)
				if _, err := eng.Query(); err != nil {
					t.Fatal(err)
				}
			}
			if after, _ := snap.Serialize(); !bytes.Equal(before, after) {
				t.Fatal("ingest and cached rebuilds changed a snapshot the caller owns")
			}
		})
	}
}

// flakyL0 is an L0 whose Merge fails while failing is set, after the
// first shard: a rebuild that fails half-way.
type flakyL0 struct {
	*sketch.L0
	failing *atomic.Bool
	merges  *atomic.Int64
}

var errFlaky = errors.New("flaky merge")

func (f *flakyL0) Merge(other sketch.Sketch) error {
	if f.merges.Add(1)%2 == 0 && f.failing.Load() {
		return errFlaky
	}
	return f.L0.Merge(other.(*flakyL0).L0)
}

// TestFailedRebuildIsDiscarded: a rebuild whose merge fails half-way
// answers the error and discards the half-merged sketch: queries at that
// epoch fail instead of serving it, and the next rebuild starts from a
// fresh sketch that equals Engine.Snapshot.
func TestFailedRebuildIsDiscarded(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 9, Kappa: 2, StreamBound: 1 << 12}
	router, err := NewRouterFromOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	var merges atomic.Int64
	eng, err := New(Config{Shards: 2, Router: router, New: func(int) (sketch.Sketch, error) {
		l, err := sketch.NewL0(opts)
		return &flakyL0{L0: l, failing: &failing, merges: &merges}, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewPCG(5, 81))
	ingestSnapshotBatch(eng, rng, 0)
	var first sketch.Sketch
	if err := eng.WithSnapshot(func(s sketch.Sketch) error { first = s; return nil }); err != nil {
		t.Fatal(err)
	}

	ingestSnapshotBatch(eng, rng, 1)
	failing.Store(true)
	for range 2 {
		err := eng.WithSnapshot(func(s sketch.Sketch) error {
			t.Fatal("a failed rebuild served its sketch")
			return nil
		})
		if !errors.Is(err, errFlaky) {
			t.Fatalf("rebuild error %v, want the merge's", err)
		}
	}
	failing.Store(false)
	merges.Store(0)
	var got string
	err = eng.WithSnapshot(func(s sketch.Sketch) error {
		if s == first {
			t.Fatal("the rebuild after a failure reused the discarded sketch")
		}
		got = snapshotState(t, s.(*flakyL0).L0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := snapshotState(t, fresh.(*flakyL0).L0); got != want {
		t.Fatalf("rebuild after a failure differs from a fresh snapshot:\n got %.200s\nwant %.200s", got, want)
	}
}

// TestSnapshotRebuildAllocs: rebuilding the cached snapshot of an l0 or
// an f0 engine (9 copies) in place, query included, allocates at most 16
// objects, at 30 and at 300 ingested batches alike: Reset keeps the
// sketch's entries, index tables and slices, so the allocations do not
// grow with the entry count.
func TestSnapshotRebuildAllocs(t *testing.T) {
	opts := core.Options{Alpha: 1, Dim: 3, Seed: 1, StreamBound: 1 << 23, K: 4, HighDim: true}
	engines := []struct {
		name string
		mk   func() (*Engine, error)
	}{
		{"l0", func() (*Engine, error) { return NewSamplerEngine(opts, Config{Shards: 2}) }},
		{"f0", func() (*Engine, error) { return NewF0Engine(opts, 0.25, 9, Config{Shards: 2}) }},
	}
	for _, c := range engines {
		t.Run(c.name, func(t *testing.T) {
			eng, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			rng := rand.New(rand.NewPCG(7, 83))
			batches := 0
			for _, target := range []int{30, 300} {
				for ; batches < target; batches++ {
					pts := make([]geom.Point, 200)
					for i := range pts {
						g := rng.IntN(200_000)
						pts[i] = geom.Point{float64(g%64)*10 + rng.Float64()/4, float64(g/64%64)*10 + rng.Float64()/4, float64(g/4096)*10 + rng.Float64()/4}
					}
					eng.ProcessBatch(pts)
				}
				eng.Drain()
				if _, err := eng.Query(); err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					eng.snapMu.Lock()
					eng.snapEpoch = -1 // the next query rebuilds
					eng.snapMu.Unlock()
					if _, err := eng.Query(); err != nil {
						t.Fatal(err)
					}
				})
				words := 0
				eng.WithSnapshot(func(s sketch.Sketch) error { words = s.Space(); return nil })
				t.Logf("%d batches: %v allocs per rebuild of a %d-word snapshot", batches, allocs, words)
				if allocs > 16 {
					t.Errorf("%d batches: %v allocs per rebuild, want ≤ 16", batches, allocs)
				}
			}
		})
	}
}
