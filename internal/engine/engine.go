// Package engine is the sharded, batched streaming layer that turns the
// single-threaded sketches of this repository into a service-grade
// ingestion path.
//
// An Engine partitions incoming points across P worker shards by the hash
// of a routing-grid cell, so that (with high probability over the random
// shift) all near-duplicates of one group land on one shard. Each shard
// owns a private Sketch fed through a bounded channel of point batches —
// the producer side blocks when a shard falls behind (backpressure), and
// workers ingest whole batches through the ProcessBatch fast path.
// Queries are answered from a merged snapshot: the engine drains all
// in-flight batches, then unions the per-shard sketches (which were built
// with identical options and therefore share grids and hash functions)
// into one sketch via the Mergeable interface — the cached snapshot,
// reset and refilled in place whenever ingest has moved the epoch. Groups
// that straddle a routing boundary are coalesced by the merge's α-ball
// test, so sharded estimates track sequential ones.
//
//	eng, _ := engine.NewSamplerEngine(opts, engine.Config{Shards: 8})
//	eng.ProcessBatch(points)           // any number of goroutines
//	res, _ := eng.Query()              // merged-snapshot query
//	st := eng.Stats()                  // atomic throughput/space counters
//	eng.Close()
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/pkg/sketch"
)

// ErrWindowedSharding is returned (or wrapped) when a caller asks to shard
// a sequence-based sliding-window sketch: a sequence window of width W is
// defined over the global arrival index, so after routing each shard would
// expire points against its own local index, and the per-stream indices do
// not compose into a union (the window sketches are not Mergeable for
// Kind == Sequence). Time-based windows expire by timestamp — a property
// of the point, not the stream — and shard fine: use window.Time
// (NewWindowSamplerEngine / NewWindowF0Engine). See docs/engine.md
// ("Limitations") for the full story.
var ErrWindowedSharding = errors.New("engine: sequence-window sketches cannot be sharded")

// Config configures an Engine.
type Config struct {
	// Shards is the number of worker shards, each owning one sketch.
	// Defaults to runtime.GOMAXPROCS(0).
	Shards int

	// BatchSize is the number of points per batch handed to a worker.
	// Defaults to 256.
	BatchSize int

	// QueueDepth is the number of batches buffered per shard before
	// producers block (backpressure). Defaults to 4.
	QueueDepth int

	// New constructs the sketch for one shard. Every shard must receive a
	// sketch built with identical parameters and seed, or the merged
	// snapshot is meaningless. The engine also calls New(-1) for a
	// snapshot accumulator, which the cached snapshot resets and reuses;
	// snapshot queries additionally require the sketches to implement
	// sketch.Mergeable. Required.
	New func(shard int) (sketch.Sketch, error)

	// Router maps points to shards; points of one near-duplicate group
	// should route together. Required (NewSamplerEngine and NewF0Engine
	// fill in a grid router derived from the sketch options).
	Router Router
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	return c
}

// Stats is a point-in-time view of the engine's atomic counters.
type Stats struct {
	Shards     int
	Enqueued   int64   // points handed to the engine
	Processed  int64   // points fully ingested by workers
	PerShard   []int64 // per-shard processed counts (routing balance)
	SpaceWords int     // live sketch words summed over shards
	Elapsed    time.Duration
	Throughput float64 // processed points per second since New

	Epoch          int64 // ingest epoch: bumped by every Process/ProcessBatch/Restore
	SnapshotHits   int64 // snapshot-cache queries answered without re-merging
	SnapshotMisses int64 // snapshot-cache rebuilds (drain + O(shards×entries) merge)
}

type batch struct {
	pts     []geom.Point
	stamps  []int64         // non-nil on stamped batches: stamps[i] stamps pts[i]
	drained *sync.WaitGroup // non-nil on drain markers; Done when reached
}

type shard struct {
	ch   chan batch
	mu   sync.Mutex // guards sk
	sk   sketch.Sketch
	done atomic.Int64
}

// Engine is the sharded batched stream processor. All exported methods
// are safe for concurrent use by any number of goroutines.
type Engine struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup

	bufPool sync.Pool // *[]geom.Point batch buffers, cap = BatchSize

	// bucketPool recycles the per-shard routing scratch of
	// ProcessBatch/ProcessStampedBatch. Without it every batch allocates
	// two slices of len(shards), making bytes-per-point grow linearly
	// with the shard count on small batches.
	bucketPool sync.Pool // *batchBuckets, slices of len(shards)
	enqueued   atomic.Int64
	closed     atomic.Bool
	start      time.Time

	// epoch counts ingest calls; the snapshot cache is valid only while it
	// holds still, so queries between ingests skip the O(shards×entries)
	// re-merge. Its broadcast wakes WaitEpoch long-polls.
	epoch      EpochCounter
	snapMu     sync.Mutex       // guards snap/snapEpoch and serializes snapshot queries
	snap       sketch.Mergeable // nil until the first build, and after a failed one
	snapEpoch  int64
	snapHits   atomic.Int64
	snapMisses atomic.Int64
	// stamped records whether the shard sketches implement sketch.Stamped
	// (time-window sketches); ProcessAt/ProcessStampedBatch require it.
	stamped bool

	// lastStamp is the engine-global latest timestamp (stamped engines
	// only). Unstamped Process/ProcessBatch stamp points with it — the
	// per-shard sketch clocks lag behind whenever a shard has not seen
	// recent traffic, so stamping with a shard-local clock would expire
	// just-ingested points at snapshot-merge time.
	lastStamp atomic.Int64
}

// New builds and starts an engine: constructs one sketch per shard and
// spawns the shard workers.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.New == nil {
		return nil, fmt.Errorf("engine: Config.New is required")
	}
	if cfg.Router == nil {
		return nil, fmt.Errorf("engine: Config.Router is required")
	}
	e := &Engine{cfg: cfg, start: time.Now()}
	e.bufPool.New = func() any {
		buf := make([]geom.Point, 0, cfg.BatchSize)
		return &buf
	}
	e.bucketPool.New = func() any {
		return &batchBuckets{
			pts:    make([][]geom.Point, cfg.Shards),
			stamps: make([][]int64, cfg.Shards),
		}
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		sk, err := cfg.New(i)
		if err != nil {
			return nil, fmt.Errorf("engine: building shard %d sketch: %w", i, err)
		}
		e.shards[i] = &shard{ch: make(chan batch, cfg.QueueDepth), sk: sk}
	}
	_, e.stamped = e.shards[0].sk.(sketch.Stamped)
	e.wg.Add(len(e.shards))
	for _, sh := range e.shards {
		go e.worker(sh)
	}
	return e, nil
}

func (e *Engine) worker(sh *shard) {
	defer e.wg.Done()
	for b := range sh.ch {
		if len(b.pts) > 0 {
			sh.mu.Lock()
			if b.stamps != nil {
				sh.sk.(sketch.Stamped).ProcessStampedBatch(b.pts, b.stamps)
			} else {
				sh.sk.ProcessBatch(b.pts)
			}
			// done is bumped under mu so that anyone holding the lock
			// (Checkpoint) sees a counter consistent with the sketch.
			sh.done.Add(int64(len(b.pts)))
			sh.mu.Unlock()
			e.putBuf(b.pts)
		}
		if b.drained != nil {
			b.drained.Done()
		}
	}
}

// getBuf takes a cleared point buffer from the pool.
//
//sketch:hotpath
func (e *Engine) getBuf() []geom.Point { return (*e.bufPool.Get().(*[]geom.Point))[:0] }

// putBuf returns a point buffer to the pool.
func (e *Engine) putBuf(b []geom.Point) { b = b[:0]; e.bufPool.Put(&b) }

// batchBuckets is the pooled per-shard routing scratch: one pending
// sub-batch (and its stamps, on stamped ingest) per shard.
type batchBuckets struct {
	pts    [][]geom.Point
	stamps [][]int64
}

func (e *Engine) getBuckets() *batchBuckets { return e.bucketPool.Get().(*batchBuckets) }

// putBuckets returns the scratch to the pool with every element cleared,
// so a recycled bucket never retains point slices already handed to a
// worker (or their stamps).
func (e *Engine) putBuckets(b *batchBuckets) {
	for i := range b.pts {
		b.pts[i] = nil
		b.stamps[i] = nil
	}
	e.bucketPool.Put(b)
}

// shardOf routes one point to its worker shard.
//
//sketch:hotpath
func (e *Engine) shardOf(p geom.Point) *shard {
	return e.shards[e.cfg.Router.Route(p)%uint64(len(e.shards))]
}

// Process feeds one stream point: it ships to its shard at once as a
// one-point batch in a pooled buffer, so callers with many points should
// prefer ProcessBatch. On a time-windowed engine the point arrives at the
// engine's latest known timestamp (see ProcessStampedBatch). Process
// must not be called after Close.
//
//sketch:hotpath
func (e *Engine) Process(p geom.Point) {
	if e.stamped {
		//sketch:ignore single stamped points ship as a one-element batch by design; batch callers use ProcessStampedBatch
		e.ProcessStampedBatch([]geom.Point{p}, []int64{e.lastStamp.Load()})
		return
	}
	if e.closed.Load() {
		panic("engine: Process after Close")
	}
	e.enqueued.Add(1)
	e.shardOf(p).ch <- batch{pts: append(e.getBuf(), p)}
	// The epoch is bumped only after the point is enqueued: a concurrent
	// snapshot that read the pre-bump epoch is stamped too old and merely
	// rebuilds on the next query. Bumping first would let a snapshot that
	// missed this point be stamped current — persistent staleness.
	e.epoch.Bump()
}

// Epoch returns the current ingest epoch — the monotone counter behind
// the snapshot cache and the HTTP tier's cache validators (see
// WithSnapshotEpoch for the stamping rules).
//
//sketch:hotpath
func (e *Engine) Epoch() int64 { return e.epoch.Load() }

// WaitEpoch blocks until the ingest epoch differs from after, or ctx is
// done, and returns the epoch it observed last — the long-poll primitive
// behind the HTTP tier's GET /watch (see EpochCounter.Wait).
func (e *Engine) WaitEpoch(ctx context.Context, after int64) int64 {
	return e.epoch.Wait(ctx, after)
}

// ProcessBatch feeds a batch of stream points: the batch is partitioned
// by the router into per-shard sub-batches of at most BatchSize points
// (no locks taken while routing), shipped to the workers as they fill —
// so QueueDepth backpressure applies to large inputs too. The slice ps
// itself is not retained. Workers read the points after ProcessBatch
// returns, so per the repository convention the caller must not mutate
// them from the moment ProcessBatch is called (Clone first). An
// infinite-window sampler keeps nothing of a batch once it has processed
// it: it copies the representatives and reservoir picks it stores. A
// window sampler's entries keep views of their points until the window
// expires them.
//
//sketch:hotpath
func (e *Engine) ProcessBatch(ps []geom.Point) {
	if len(ps) == 0 {
		return
	}
	if e.stamped {
		// Unstamped ingest into a time-windowed engine: the whole batch
		// arrives at the engine-global latest timestamp. Stamping with the
		// receiving shards' local clocks instead would backdate points on
		// shards that have not seen recent traffic and silently expire them
		// at snapshot-merge time.
		//sketch:ignore unstamped ingest into a windowed engine synthesizes stamps once per batch
		stamps := make([]int64, len(ps))
		now := e.lastStamp.Load()
		for i := range stamps {
			stamps[i] = now
		}
		e.ProcessStampedBatch(ps, stamps)
		return
	}
	if e.closed.Load() {
		panic("engine: ProcessBatch after Close")
	}
	e.route(ps, nil)
	// Bumped after enqueueing, for the reason documented in Process.
	e.epoch.Bump()
}

// ProcessStampedBatch feeds a batch of explicitly stamped points to a
// time-windowed engine: stamps[i] is the timestamp of ps[i], which may be
// late (see core.WindowSampler.ProcessAt). The batch is partitioned by the
// router exactly like ProcessBatch — expiry is a per-point property of
// the stamp, so shard-local expiry plus the merged snapshot equals the
// sequential window sampler. Panics when the configured sketches do not
// implement sketch.Stamped (build the engine with NewWindowSamplerEngine
// or NewWindowF0Engine over a time-based window).
//
//sketch:hotpath
func (e *Engine) ProcessStampedBatch(ps []geom.Point, stamps []int64) {
	if len(ps) == 0 {
		return
	}
	if len(ps) != len(stamps) {
		panic("engine: ProcessStampedBatch: len(ps) != len(stamps)")
	}
	if e.closed.Load() {
		panic("engine: ProcessStampedBatch after Close")
	}
	if !e.stamped {
		panic("engine: ProcessStampedBatch on an engine whose sketches are not time-windowed (sketch.Stamped)")
	}
	// Advance the engine-global clock to the batch's latest stamp.
	// CAS-max: concurrent producers may race, and the clock must never
	// move backwards.
	for latest := slices.Max(stamps); ; {
		cur := e.lastStamp.Load()
		if latest <= cur || e.lastStamp.CompareAndSwap(cur, latest) {
			break
		}
	}
	e.route(ps, stamps)
	// Bumped after enqueueing, for the reason documented in Process.
	e.epoch.Bump()
}

// route partitions a batch by the router into per-shard sub-batches of
// at most BatchSize points and ships each to its worker as it fills.
// stamps, when non-nil, stamps ps point for point and travels with the
// sub-batches; nil routes an unstamped batch.
//
//sketch:hotpath
func (e *Engine) route(ps []geom.Point, stamps []int64) {
	e.enqueued.Add(int64(len(ps)))
	bk := e.getBuckets()
	buckets, stampBuckets := bk.pts, bk.stamps
	for k, p := range ps {
		i := e.cfg.Router.Route(p) % uint64(len(e.shards))
		b := buckets[i]
		if b == nil {
			b = e.getBuf()
		}
		b = append(b, p)
		if stamps != nil {
			stampBuckets[i] = append(stampBuckets[i], stamps[k])
		}
		if len(b) >= e.cfg.BatchSize {
			e.shards[i].ch <- batch{pts: b, stamps: stampBuckets[i]}
			b = e.getBuf()
			stampBuckets[i] = nil
		}
		buckets[i] = b
	}
	for i, b := range buckets {
		if len(b) > 0 {
			e.shards[i].ch <- batch{pts: b, stamps: stampBuckets[i]}
		} else if b != nil {
			e.putBuf(b)
		}
	}
	e.putBuckets(bk)
}

// ProcessAt feeds one explicitly stamped point to a time-windowed engine.
// Like Process, the point ships to its shard immediately, so high-rate
// stamped producers should prefer ProcessStampedBatch.
func (e *Engine) ProcessAt(p geom.Point, stamp int64) {
	e.ProcessStampedBatch([]geom.Point{p}, []int64{stamp})
}

// Drain blocks until every batch enqueued so far has been fully
// ingested. Concurrent producers may keep feeding; Drain only guarantees
// its happens-before batches are done. After Close (which already
// drained) it is a no-op.
func (e *Engine) Drain() {
	if e.closed.Load() {
		return
	}
	var drained sync.WaitGroup
	drained.Add(len(e.shards))
	for _, sh := range e.shards {
		sh.ch <- batch{drained: &drained}
	}
	drained.Wait()
}

// Snapshot drains the engine and returns a fresh sketch holding the union
// of every shard: the merged view a sequential sampler of the whole
// stream would have. The per-shard sketches keep ingesting afterwards;
// the returned sketch is the caller's, and no later ingest or snapshot
// changes it. Requires the configured sketches to implement
// sketch.Mergeable.
func (e *Engine) Snapshot() (sketch.Sketch, error) {
	e.Drain()
	m, err := e.newAccumulator()
	if err != nil {
		return nil, err
	}
	if err := e.mergeShards(m); err != nil {
		return nil, err
	}
	return m, nil
}

// newAccumulator builds an empty sketch for the shards (or a restored
// checkpoint's sketches) to merge into.
func (e *Engine) newAccumulator() (sketch.Mergeable, error) {
	fresh, err := e.cfg.New(-1)
	if err != nil {
		return nil, fmt.Errorf("engine: building snapshot sketch: %w", err)
	}
	m, ok := fresh.(sketch.Mergeable)
	if !ok {
		return nil, fmt.Errorf("engine: %T is not mergeable; snapshots and restores need sketch.Mergeable", fresh)
	}
	return m, nil
}

// mergeShards merges every shard's sketch into m, each under its lock.
func (e *Engine) mergeShards(m sketch.Mergeable) error {
	for i, sh := range e.shards {
		sh.mu.Lock()
		err := m.Merge(sh.sk)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("engine: merging shard %d: %w", i, err)
		}
	}
	return nil
}

// cachedSnapshot returns the merged snapshot for the current ingest
// epoch, rebuilding it only when ingestion has advanced since the last
// build. A rebuild drains the engine and refills the cached sketch in
// place, Reset then a merge of every shard, so that it reuses the
// sketch's memory instead of building a fresh sketch per epoch. A
// rebuild that fails discards the sketch, and the next one starts from a
// fresh one: a half-merged snapshot is never served. Callers must hold
// snapMu, and must keep holding it while using the returned sketch:
// snapshot queries advance the sketch's query RNG, so unsynchronized
// sharing would race.
func (e *Engine) cachedSnapshot() (sketch.Sketch, error) {
	// The epoch is read before the drain, and producers bump it only
	// after enqueueing: both orderings err toward stamping the snapshot
	// too old, so a merge that raced an ingest costs one extra rebuild on
	// the next query — stale reads never persist.
	ep := e.epoch.Load()
	if e.snap != nil && e.snapEpoch == ep {
		e.snapHits.Add(1)
		return e.snap, nil
	}
	e.snapMisses.Add(1)
	e.Drain()
	if e.snap == nil {
		m, err := e.newAccumulator()
		if err != nil {
			return nil, err
		}
		e.snap = m
	} else {
		e.snap.Reset()
	}
	if err := e.mergeShards(e.snap); err != nil {
		e.snap = nil
		return nil, err
	}
	e.snapEpoch = ep
	return e.snap, nil
}

// WithSnapshot runs fn on the cached merged snapshot, rebuilding it first
// only if ingestion has advanced since the last build. The sketch is
// exclusively owned for the duration of fn (snapshot queries mutate the
// query RNG); fn must not retain it, and must not call back into
// WithSnapshot/Query/Checkpoint, which would deadlock. Ingestion may
// proceed concurrently — it only marks the cache stale.
func (e *Engine) WithSnapshot(fn func(sketch.Sketch) error) error {
	return e.WithSnapshotEpoch(func(s sketch.Sketch, _ int64) error { return fn(s) })
}

// WithSnapshotEpoch is WithSnapshot plus the ingest epoch the snapshot
// was stamped with — the cache-invalidation token the HTTP tier stamps
// as the X-Sketch-Epoch header. The stamp is monotone and
// conservative: two calls observing the same epoch saw byte-identical
// sketch state (a snapshot is only rebuilt when the epoch has moved),
// while an ingest racing the build may yield a fresh epoch over
// unchanged state — a cache rebuild, never staleness. The ownership
// rules of WithSnapshot apply unchanged.
func (e *Engine) WithSnapshotEpoch(fn func(s sketch.Sketch, epoch int64) error) error {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	s, err := e.cachedSnapshot()
	if err != nil {
		return err
	}
	return fn(s, e.snapEpoch)
}

// Query answers from the cached merged snapshot of all shards,
// re-merging only when ingestion has advanced since the previous query.
func (e *Engine) Query() (sketch.Result, error) {
	var res sketch.Result
	err := e.WithSnapshot(func(s sketch.Sketch) error {
		var qerr error
		res, qerr = s.Query()
		return qerr
	})
	return res, err
}

// Enqueued returns the number of points handed to the engine so far —
// the lock-free subset of Stats for hot paths.
//
//sketch:hotpath
func (e *Engine) Enqueued() int64 { return e.enqueued.Load() }

// Shards returns the number of worker shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Stamped reports whether the engine's sketches are time-windowed
// (sketch.Stamped): ingest into such an engine is stamped, and
// ProcessStampedBatch accepts it.
func (e *Engine) Stamped() bool { return e.stamped }

// Processed returns the number of points fully folded into shard
// sketches — the lock-free subset of Stats for metric scrapes.
//
//sketch:hotpath
func (e *Engine) Processed() int64 {
	var n int64
	for _, sh := range e.shards {
		n += sh.done.Load()
	}
	return n
}

// ShardProcessed returns shard i's processed-point count, lock-free.
//
//sketch:hotpath
func (e *Engine) ShardProcessed(i int) int64 { return e.shards[i].done.Load() }

// SpaceWords returns the live sketch words summed over shards, briefly
// locking each shard.
func (e *Engine) SpaceWords() int {
	var w int
	for _, sh := range e.shards {
		sh.mu.Lock()
		w += sh.sk.Space()
		sh.mu.Unlock()
	}
	return w
}

// SnapshotHits returns the number of snapshot-cache hits.
func (e *Engine) SnapshotHits() int64 { return e.snapHits.Load() }

// SnapshotMisses returns the number of snapshot-cache rebuilds.
func (e *Engine) SnapshotMisses() int64 { return e.snapMisses.Load() }

// Stats returns the engine's counters. Processed/Enqueued are atomic;
// SpaceWords briefly locks each shard.
func (e *Engine) Stats() Stats {
	st := Stats{
		Shards:         len(e.shards),
		Enqueued:       e.enqueued.Load(),
		PerShard:       make([]int64, len(e.shards)),
		Elapsed:        time.Since(e.start),
		Epoch:          e.epoch.Load(),
		SnapshotHits:   e.snapHits.Load(),
		SnapshotMisses: e.snapMisses.Load(),
	}
	for i, sh := range e.shards {
		n := sh.done.Load()
		st.PerShard[i] = n
		st.Processed += n
		sh.mu.Lock()
		st.SpaceWords += sh.sk.Space()
		sh.mu.Unlock()
	}
	if secs := st.Elapsed.Seconds(); secs > 0 {
		st.Throughput = float64(st.Processed) / secs
	}
	return st
}

// Close stops the workers and waits for them to finish. Snapshot/Query
// keep working on the final state, but no further points may be
// processed. Close is idempotent, but must not race with
// in-flight Process/ProcessBatch/Drain calls; Process after Close panics.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range e.shards {
		close(sh.ch)
	}
	e.wg.Wait()
}
