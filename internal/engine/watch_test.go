package engine

// WaitEpoch suite: the long-poll primitive behind the HTTP tier's
// GET /watch. The properties pinned here are the ones push propagation
// leans on: a waiter behind the current epoch returns immediately, and
// so does one ahead of it (it watched an earlier incarnation), a parked
// waiter is woken by the very next ingest (no lost bumps, even when the
// bump races the park), every waiter of one broadcast wakes, and a
// context deadline unblocks without an ingest.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

func newWatchEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 7, StreamBound: 1 << 12, Kappa: 64}
	eng, err := NewSamplerEngine(opts, Config{Shards: shards, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func TestWaitEpochImmediate(t *testing.T) {
	eng := newWatchEngine(t, 2)
	eng.Process(geom.Point{1, 1})
	if ep := eng.Epoch(); ep != 1 {
		t.Fatalf("epoch after one ingest = %d, want 1", ep)
	}
	// Behind the current epoch: returns without blocking.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if got := eng.WaitEpoch(ctx, 0); got != 1 {
		t.Fatalf("WaitEpoch(0) = %d, want 1", got)
	}
	if ctx.Err() != nil {
		t.Fatal("immediate WaitEpoch consumed the deadline")
	}
}

func TestWaitEpochAheadReturnsImmediately(t *testing.T) {
	eng := newWatchEngine(t, 1)
	// A watcher of a previous incarnation asks for epoch 5 on a fresh
	// engine: the epoch differs, so the wait answers at once.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if got := eng.WaitEpoch(ctx, 5); got != 0 {
		t.Fatalf("WaitEpoch(5) on a fresh engine = %d, want 0", got)
	}
	if ctx.Err() != nil {
		t.Fatal("WaitEpoch ahead of the engine parked until the deadline")
	}
}

func TestWaitEpochWokenByIngest(t *testing.T) {
	eng := newWatchEngine(t, 2)
	done := make(chan int64, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- eng.WaitEpoch(ctx, 0)
	}()
	// Give the waiter a moment to park, then bump.
	time.Sleep(20 * time.Millisecond)
	eng.Process(geom.Point{3, 3})
	select {
	case got := <-done:
		if got < 1 {
			t.Fatalf("woken WaitEpoch observed epoch %d, want ≥ 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitEpoch not woken by ingest")
	}
}

func TestWaitEpochBroadcast(t *testing.T) {
	eng := newWatchEngine(t, 4)
	const waiters = 16
	var wg sync.WaitGroup
	got := make([]int64, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			got[i] = eng.WaitEpoch(ctx, 0)
		}(i)
	}
	// Concurrent producers racing the parked waiters: every waiter must
	// come back with a post-bump epoch regardless of interleaving.
	var producers sync.WaitGroup
	for i := 0; i < 4; i++ {
		producers.Add(1)
		go func(i int) {
			defer producers.Done()
			eng.ProcessBatch([]geom.Point{{float64(i) * 50, 1}})
		}(i)
	}
	wg.Wait()
	producers.Wait()
	for i, ep := range got {
		if ep < 1 {
			t.Fatalf("waiter %d observed epoch %d, want ≥ 1 (lost wakeup)", i, ep)
		}
	}
}

func TestWaitEpochContextDeadline(t *testing.T) {
	eng := newWatchEngine(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if got := eng.WaitEpoch(ctx, 0); got != 0 {
		t.Fatalf("timed-out WaitEpoch = %d, want the unchanged epoch 0", got)
	}
	if ctx.Err() == nil {
		t.Fatal("WaitEpoch at the current epoch returned before the deadline")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("WaitEpoch ignored the context deadline")
	}
}
