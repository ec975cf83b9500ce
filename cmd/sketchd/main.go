// Command sketchd is the network-facing ingest and query daemon: a sharded
// robust-sketch engine behind an HTTP API. Points arrive over the wire in
// NDJSON or binary batches, queries are answered from a cached merged
// snapshot, and the full engine state survives restarts through
// checkpoint files.
//
//	sketchd -dim 2 -alpha 0.5 -shards 8 -checkpoint /var/lib/sketchd.ckpt
//	sketchd -dim 2 -alpha 0.5 -shards 8 -checkpoint /var/lib/sketchd.ckpt -restore
//	sketchd -dim 3 -sketch f0 -eps 0.2 -copies 9
//	sketchd -dim 2 -alpha 0.5 -shards 8 -window 3600
//
// Endpoints (full reference and a worked curl session in docs/server.md):
//
//	POST /ingest      point batches (NDJSON lines or packed float64s)
//	GET  /query       robust sample + distinct estimate (?k= for k samples)
//	GET  /sketch      serialized merged snapshot (cluster federation hook)
//	GET  /stats       engine + server counters
//	POST /checkpoint  atomically persist engine state to -checkpoint
//	GET  /healthz     liveness
//	GET  /metrics     Prometheus text exposition (disable with -metrics=false)
//
// With -window W the daemon serves the time-based sliding window of the
// last W time units instead of the whole stream: each ingest batch is
// stamped with the client's X-Sketch-Stamp header or the server clock in
// Unix seconds, expired points fall out of queries, and windowed state
// checkpoints and federates like every other family. Sequence windows
// cannot be sharded, so the daemon has none (run cmd/l0sample or
// cmd/f0est single-threaded instead; see docs/engine.md "Limitations").
//
// With -checkpoint-every the daemon also checkpoints continuously in the
// background (atomic writes, safe under live traffic), bounding data loss
// on a crash to one interval.
//
// On SIGINT/SIGTERM the daemon stops accepting requests, drains the
// engine, and — when -save-on-exit is set — writes a final checkpoint, so
// a subsequent -restore resumes exactly where the stream left off.
// Restoring requires the same -sketch family, options, and seed as the
// checkpointing run; -shards may differ (the checkpointed state is
// re-routed onto the new shard layout with identical query results).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/window"
)

func main() {
	var (
		addr      = flag.String("addr", ":7070", "listen address")
		kind      = flag.String("sketch", "l0", "sketch family per shard: l0 (robust sampler) or f0 (robust distinct-count estimator)")
		alpha     = flag.Float64("alpha", 1, "distance threshold α: points within α are near-duplicates")
		dim       = flag.Int("dim", 0, "point dimension (required)")
		m         = flag.Int("m", 1<<20, "stream-length bound m sizing thresholds and hash independence")
		kappa     = flag.Int("kappa", 0, "accept-set threshold constant κ0 (0 = default)")
		k         = flag.Int("k", 1, "samples without replacement to support per query (l0 only)")
		eps       = flag.Float64("eps", 0.25, "target accuracy (1±ε) of the f0 estimator")
		copies    = flag.Int("copies", 9, "median-boosting copies of the f0 estimator")
		seed      = flag.Uint64("seed", 1, "random seed (must match across checkpoint/restore)")
		shards    = flag.Int("shards", 0, "worker shards (0 = GOMAXPROCS; must match across checkpoint/restore)")
		batch     = flag.Int("batch", 256, "points per worker batch")
		queue     = flag.Int("queue", 4, "batches buffered per shard before producers block")
		ckpt      = flag.String("checkpoint", "", "checkpoint file written by POST /checkpoint (empty disables)")
		restore   = flag.Bool("restore", false, "restore engine state from -checkpoint at startup")
		saveEnd   = flag.Bool("save-on-exit", false, "write a final checkpoint to -checkpoint on graceful shutdown")
		ckptEvery = flag.Duration("checkpoint-every", 0, "write a background checkpoint to -checkpoint at this interval (0 disables)")
		windowW   = flag.Int64("window", 0, "serve a sliding time window of the last W time units instead of the whole stream (0 = infinite window; sequence windows: use cmd/l0sample or cmd/f0est single-threaded)")
		metrics   = flag.Bool("metrics", true, "expose Prometheus metrics on GET /metrics")
		slowQ     = flag.Duration("slow-query", 0, "log requests slower than this as JSON lines on stderr (0 disables)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	)
	flag.Parse()

	if *dim < 1 {
		fatal(fmt.Errorf("-dim is required"))
	}
	if *ckptEvery < 0 {
		fatal(fmt.Errorf("-checkpoint-every must be positive, got %v", *ckptEvery))
	}
	if (*restore || *saveEnd || *ckptEvery > 0) && *ckpt == "" {
		fatal(fmt.Errorf("-restore, -save-on-exit, and -checkpoint-every need -checkpoint"))
	}

	opts := core.Options{
		Alpha:       *alpha,
		Dim:         *dim,
		StreamBound: *m,
		Kappa:       *kappa,
		K:           *k,
		Seed:        *seed,
		HighDim:     true,
	}
	var (
		eng *engine.Engine
		err error
	)
	cfg := engine.Config{Shards: *shards, BatchSize: *batch, QueueDepth: *queue}
	windowed := *windowW > 0
	win := window.Window{Kind: window.Time, W: *windowW}
	switch {
	case *kind == "l0" && windowed:
		eng, err = engine.NewWindowSamplerEngine(opts, win, cfg)
	case *kind == "l0":
		eng, err = engine.NewSamplerEngine(opts, cfg)
	case *kind == "f0" && windowed:
		eng, err = engine.NewWindowF0Engine(opts, win, *eps, cfg)
	case *kind == "f0":
		eng, err = engine.NewF0Engine(opts, *eps, *copies, cfg)
	default:
		err = fmt.Errorf("unknown -sketch %q (want l0 or f0)", *kind)
	}
	if err != nil {
		fatal(err)
	}

	if *restore {
		if err := eng.RestoreFile(*ckpt); err != nil {
			fatal(err)
		}
		log.Printf("restored %d points from %s", eng.Stats().Enqueued, *ckpt)
	}

	srv, err := server.New(server.Config{
		Engine:         eng,
		Dim:            *dim,
		CheckpointPath: *ckpt,
		Restored:       *restore,
		NoMetrics:      !*metrics,
		SlowQuery:      *slowQ,
	})
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	if *pprofAddr != "" {
		go func() {
			log.Printf("sketchd: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, telemetry.PprofHandler()); err != nil {
				log.Printf("sketchd: pprof: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background periodic checkpointing: CheckpointFile is atomic (temp +
	// fsync + rename) and safe under concurrent ingest, so the ticker can
	// fire while traffic flows. The goroutine exits on shutdown and is
	// awaited before the final drain, so it never races Close.
	var ckptWG sync.WaitGroup
	if *ckptEvery > 0 {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					size, points, err := eng.CheckpointFile(*ckpt)
					if err != nil {
						log.Printf("sketchd: periodic checkpoint: %v", err)
						continue
					}
					log.Printf("sketchd: periodic checkpoint: %d points, %d bytes to %s", points, size, *ckpt)
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		desc := *kind
		if windowed {
			desc = fmt.Sprintf("%s over a %v window of %d", *kind, win.Kind, win.W)
		}
		ver, commit := telemetry.BuildInfo()
		log.Printf("sketchd: build %s (%s), %s engine, %d shards, listening on %s", ver, commit, desc, eng.Stats().Shards, *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	log.Printf("sketchd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		// In-flight handlers may still be mid-ingest: draining,
		// checkpointing, or closing the engine now would race them
		// (Close must not run concurrently with ProcessBatch). Exit
		// without touching the engine; the previous checkpoint on disk
		// stays valid.
		log.Printf("sketchd: shutdown: %v; skipping final drain/checkpoint", err)
		os.Exit(1)
	}
	ckptWG.Wait()
	eng.Drain()
	if *saveEnd {
		size, points, err := eng.CheckpointFile(*ckpt)
		if err != nil {
			fatal(err)
		}
		log.Printf("sketchd: final checkpoint: %d points, %d bytes to %s", points, size, *ckpt)
	}
	eng.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sketchd:", err)
	os.Exit(1)
}
