package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/pkg/sketch"
)

func TestSnapshotCacheHitsAndInvalidation(t *testing.T) {
	pts := stream(100, 5, 3)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: len(pts) + 1, Kappa: 32}
	eng, err := NewSamplerEngine(opts, Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.ProcessBatch(pts[:len(pts)/2])

	first, err := eng.Query()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		res, err := eng.Query()
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimate != first.Estimate {
			t.Fatalf("cached query estimate %g != first %g", res.Estimate, first.Estimate)
		}
	}
	st := eng.Stats()
	if st.SnapshotMisses != 1 || st.SnapshotHits != 9 {
		t.Fatalf("cache misses=%d hits=%d, want 1/9", st.SnapshotMisses, st.SnapshotHits)
	}

	// Ingestion bumps the epoch and must invalidate the cache.
	eng.ProcessBatch(pts[len(pts)/2:])
	if _, err := eng.Query(); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.SnapshotMisses != 2 {
		t.Fatalf("post-ingest misses=%d, want 2", st.SnapshotMisses)
	}
	if st.Epoch != 2 {
		t.Fatalf("epoch=%d after 2 ingest calls", st.Epoch)
	}
}

// TestSnapshotCacheConcurrent hammers the cache with concurrent queriers
// and producers; run under -race to catch unsynchronized snapshot use.
func TestSnapshotCacheConcurrent(t *testing.T) {
	pts := stream(80, 6, 11)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 13, StreamBound: len(pts) + 1}
	eng, err := NewSamplerEngine(opts, Config{Shards: 4, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Seed the engine so concurrent queries never see an empty sketch
	// (which would be a legitimate query error, not a race).
	eng.ProcessBatch(pts[:len(pts)/2])
	eng.Drain()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(ps []geom.Point) {
			defer wg.Done()
			eng.ProcessBatch(ps)
		}(pts[len(pts)/2+w*len(pts)/8 : len(pts)/2+(w+1)*len(pts)/8])
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := eng.Query(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	pts := stream(200, 5, 7)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 9, StreamBound: len(pts) + 1}
	mk := func() *Engine {
		eng, err := NewF0Engine(opts, 0.25, 5, Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	eng := mk()
	eng.ProcessBatch(pts)
	want, err := eng.Query()
	if err != nil {
		t.Fatal(err)
	}
	wantStats := eng.Stats()

	var buf bytes.Buffer
	points, err := eng.Checkpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if points != int64(len(pts)) {
		t.Fatalf("checkpoint recorded %d points, want %d", points, len(pts))
	}
	eng.Close()

	fresh := mk()
	defer fresh.Close()
	if err := fresh.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimate != want.Estimate {
		t.Fatalf("restored estimate %g != checkpointed %g", got.Estimate, want.Estimate)
	}
	gotStats := fresh.Stats()
	if gotStats.Enqueued != wantStats.Enqueued || gotStats.Processed != wantStats.Processed {
		t.Fatalf("restored counters enqueued=%d processed=%d, want %d/%d",
			gotStats.Enqueued, gotStats.Processed, wantStats.Enqueued, wantStats.Processed)
	}

	// The restored engine must keep ingesting: same extra stream on both
	// a never-checkpointed engine and the restored one, same estimate.
	extra := stream(40, 3, 8)
	cont := mk()
	defer cont.Close()
	cont.ProcessBatch(pts)
	cont.ProcessBatch(extra)
	fresh.ProcessBatch(extra)
	contRes, err := cont.Query()
	if err != nil {
		t.Fatal(err)
	}
	freshRes, err := fresh.Query()
	if err != nil {
		t.Fatal(err)
	}
	if contRes.Estimate != freshRes.Estimate {
		t.Fatalf("post-restore ingestion diverged: %g != %g", freshRes.Estimate, contRes.Estimate)
	}
}

func TestCheckpointFileAndRestoreErrors(t *testing.T) {
	pts := stream(50, 4, 5)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 3, StreamBound: len(pts) + 1}
	eng, err := NewSamplerEngine(opts, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.ProcessBatch(pts)

	path := filepath.Join(t.TempDir(), "engine.ckpt")
	size, points, err := eng.CheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if points != int64(len(pts)) {
		t.Fatalf("checkpoint recorded %d points, want %d", points, len(pts))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != size {
		t.Fatalf("checkpoint file: err=%v size=%d want %d", err, fi.Size(), size)
	}

	// Restore into a non-empty engine must fail.
	if err := eng.RestoreFile(path); err == nil {
		t.Fatal("Restore into a non-empty engine succeeded")
	}

	// Restore into an engine with a different shard count re-routes the
	// checkpointed entries and must answer identically (see also
	// TestRestoreReshard).
	other, err := NewSamplerEngine(opts, Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.RestoreFile(path); err != nil {
		t.Fatalf("re-sharding restore: %v", err)
	}
	want2, err := eng.Query()
	if err != nil {
		t.Fatal(err)
	}
	got2, err := other.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got2.Estimate != want2.Estimate {
		t.Fatalf("re-sharded estimate %g != original %g", got2.Estimate, want2.Estimate)
	}

	// Foreign bytes must be rejected on the magic check.
	empty, err := NewSamplerEngine(opts, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	if err := empty.Restore(bytes.NewReader([]byte("definitely not a checkpoint"))); err == nil {
		t.Fatal("Restore of foreign bytes succeeded")
	}
	if err := empty.RestoreFile(path); err != nil {
		t.Fatalf("restore into fresh engine: %v", err)
	}
	res, err := empty.Query()
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate != want.Estimate {
		t.Fatalf("file-restored estimate %g != original %g", res.Estimate, want.Estimate)
	}
}

// checkpointOf runs pts through a fresh 2-shard engine built by mk and
// returns its checkpoint and query estimate.
func checkpointOf(t *testing.T, mk func(shards int) (*Engine, error), pts []geom.Point) ([]byte, float64) {
	t.Helper()
	eng, err := mk(2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.ProcessBatch(pts)
	res, err := eng.Query()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Estimate
}

// TestRestoreRefusesMismatchedOptions restores a 2-shard, seed-3 l0
// checkpoint into engines built with another seed, another α and another
// family, at the checkpoint's shard count and at another. Each restore
// must fail with the merge error and leave the engine empty; the engine
// must then restore a checkpoint of its own options and answer as the
// engine that wrote it did.
func TestRestoreRefusesMismatchedOptions(t *testing.T) {
	pts := stream(100, 4, 5)
	base := core.Options{Alpha: 1, Dim: 2, Seed: 3, StreamBound: len(pts) + 1}
	l0 := func(o core.Options) func(int) (*Engine, error) {
		return func(shards int) (*Engine, error) { return NewSamplerEngine(o, Config{Shards: shards}) }
	}
	seed4, alpha2 := base, base
	seed4.Seed = 4
	alpha2.Alpha = 2
	blob, _ := checkpointOf(t, l0(base), pts)

	cases := []struct {
		name string
		mk   func(int) (*Engine, error)
		want error
	}{
		{"seed", l0(seed4), core.ErrMergeOptions},
		{"alpha", l0(alpha2), core.ErrMergeOptions},
		{"family", func(shards int) (*Engine, error) {
			return NewF0Engine(base, 0.25, 5, Config{Shards: shards})
		}, sketch.ErrIncompatible},
	}
	for _, tc := range cases {
		own, want := checkpointOf(t, tc.mk, pts)
		for _, shards := range []int{2, 3} {
			eng, err := tc.mk(shards)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(bytes.NewReader(blob)); !errors.Is(err, tc.want) {
				t.Fatalf("%s mismatch, %d shards: Restore error %v, want %v", tc.name, shards, err, tc.want)
			}
			if eng.Enqueued() != 0 || eng.Processed() != 0 || eng.SpaceWords() != 0 {
				t.Fatalf("%s mismatch, %d shards: refused restore left enqueued %d processed %d space %d",
					tc.name, shards, eng.Enqueued(), eng.Processed(), eng.SpaceWords())
			}
			if err := eng.Restore(bytes.NewReader(own)); err != nil {
				t.Fatalf("%s mismatch, %d shards: restoring its own checkpoint: %v", tc.name, shards, err)
			}
			res, err := eng.Query()
			if err != nil {
				t.Fatal(err)
			}
			if res.Estimate != want || eng.Enqueued() != int64(len(pts)) {
				t.Fatalf("%s mismatch, %d shards: restored estimate %g over %d points, want %g over %d",
					tc.name, shards, res.Estimate, eng.Enqueued(), want, len(pts))
			}
			// At the checkpoint's shard count the restore's fold is the
			// cached snapshot, so the first query does not fold again.
			if misses := eng.Stats().SnapshotMisses; shards == 2 && misses != 0 {
				t.Fatalf("%s mismatch: first query after a same-shard restore rebuilt the snapshot (%d misses)", tc.name, misses)
			}
			eng.Close()
		}
	}
}

// FuzzRestore feeds arbitrary bytes to Restore on fresh 2- and 3-shard
// seed-3 l0 engines. No input may panic; a refused restore must leave
// the engine empty, and an accepted one must leave it answering queries
// (an empty sketch is an answer).
func FuzzRestore(f *testing.F) {
	pts := stream(60, 3, 9)
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 3, StreamBound: 1 << 10}
	other := opts
	other.Seed = 4
	for _, o := range []core.Options{opts, other} {
		eng, err := NewSamplerEngine(o, Config{Shards: 2})
		if err != nil {
			f.Fatal(err)
		}
		eng.ProcessBatch(pts)
		var buf bytes.Buffer
		if _, err := eng.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		eng.Close()
		f.Add(buf.Bytes())
	}
	v1, err := os.ReadFile("testdata/checkpoint_v1.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shards := range []int{2, 3} {
			eng, err := NewSamplerEngine(opts, Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Restore(bytes.NewReader(data)); err != nil {
				if n := eng.Enqueued(); n != 0 {
					t.Fatalf("%d shards: refused restore (%v) left Enqueued() = %d", shards, err, n)
				}
			} else if _, err := eng.Query(); err != nil && !errors.Is(err, core.ErrEmptySketch) {
				t.Fatalf("%d shards: accepted restore, then Query: %v", shards, err)
			}
			eng.Close()
		}
	})
}
