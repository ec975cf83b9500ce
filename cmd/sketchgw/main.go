// Command sketchgw is the cluster gateway: it federates a fleet of
// sketchd daemons behind one endpoint with the same HTTP API, so clients
// are oblivious to whether they talk to one node or a cluster. Ingest
// batches are routed so each point lands on exactly one peer (by the same
// routing grid the peers shard with internally); queries scatter to all
// live peers, gather their serialized sketches, and answer from the
// merged union.
//
// Queries use push-based epoch propagation: a watcher per peer
// long-polls the peer's GET /watch, queries answer from the cached
// federated fold instantly (X-Sketch-Staleness reports the age bound),
// and a background refresher re-folds off the request path, one round
// per demand: when the fold first goes dirty, after a query is served
// from a dirty fold, and as a backstop for a dirty fold no query has
// asked about for half of -max-stale. -max-stale bounds how stale a
// served fold may get, and within it a complete fold is never replaced
// by a partial one. The gateway serves GET /watch itself, so a gateway
// listed as another gateway's peer propagates by push too.
//
//	sketchgw -dim 2 -alpha 0.5 -peers http://a:7070,http://b:7070,http://c:7070
//	sketchgw -dim 2 -alpha 0.5 -peers ... -partial fail -timeout 2s
//	sketchgw -dim 2 -alpha 0.5 -peers ... -max-stale 500ms -watch-timeout 10s
//	sketchgw -dim 2 -alpha 0.5 -peers ... -replicas 2
//
// -replicas R makes every routing cell owned by R peers: ingest fans each
// sub-batch to all owners, queries answer complete (partial: false) while
// fewer than R peers are down, sub-batches missed by a down replica are
// queued for hinted handoff and replayed on recovery, and a rejoining
// replica is read-repaired with the merged slice of the cells it owns
// (see docs/cluster.md "Replication & quorum reads").
//
// Endpoints (full reference in docs/cluster.md):
//
//	POST /ingest   point batches (NDJSON or packed binary) → routed to peers
//	GET  /query    federated sample + estimate; "partial": true on degraded answers
//	GET  /sketch   the federated merged sketch (so gateways stack into trees)
//	GET  /watch    long-poll on the fold's export generation (the push hook for stacked gateways)
//	GET  /stats    gateway counters + per-peer health
//	GET  /healthz  ok / degraded (k/n peers up) / 503 with no live peers
//	GET  /metrics  Prometheus text exposition (disable with -metrics=false)
//
// Every request is tagged with an X-Sketch-Trace ID (inbound wins, the
// gateway mints otherwise; -trace=false stops minting) that is echoed on
// the response and forwarded to every peer the request touches, so one
// federated query reconstructs across the fleet from its trace ID.
// -slow-query logs requests over a threshold as structured JSON with
// per-stage timings; -pprof serves net/http/pprof on a side address.
//
// -alpha, -dim, and -seed must match the peers' flags: the routing grid
// is derived from them, and peer sketches merge only when built with
// identical options.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", ":7071", "listen address")
		peers    = flag.String("peers", "", "comma-separated sketchd base URLs (required)")
		alpha    = flag.Float64("alpha", 1, "distance threshold α — must match the peers")
		dim      = flag.Int("dim", 0, "point dimension (required) — must match the peers")
		seed     = flag.Uint64("seed", 1, "random seed — must match the peers")
		replicas = flag.Int("replicas", 1, "peers owning each routing cell: ingest fans to all R owners, queries stay complete while <R peers are down")
		handoff  = flag.Int("handoff-max", 256, "with -replicas >1, max hinted-handoff sub-batches queued per down replica before overflow drops")
		partial  = flag.String("partial", "degrade", "partial-failure policy for quorum-partial folds: degrade (answer from live peers, partial=true) or fail (502)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-attempt timeout of each peer request")
		retries  = flag.Int("retries", 2, "extra attempts per failed peer request")
		backoff  = flag.Duration("backoff", 50*time.Millisecond, "base delay between retry attempts (linear)")
		downN    = flag.Int("down-after", 3, "consecutive failures before a peer's circuit breaker opens")
		cooldown = flag.Duration("down-cooldown", 2*time.Second, "how long an open breaker skips a peer")
		maxStale = flag.Duration("max-stale", 5*time.Second, "how stale a served fold may be before a query pays a synchronous refresh; negative = unbounded")
		watchTO  = flag.Duration("watch-timeout", 25*time.Second, "the /watch long-poll timeout requested from peers, and the ceiling of the gateway's own /watch")
		metrics  = flag.Bool("metrics", true, "expose Prometheus metrics on GET /metrics")
		trace    = flag.Bool("trace", true, "mint X-Sketch-Trace IDs and propagate them to peers")
		slowQ    = flag.Duration("slow-query", 0, "log requests slower than this as JSON lines on stderr (0 disables)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	)
	flag.Parse()

	if *dim < 1 {
		fatal(fmt.Errorf("-dim is required"))
	}
	peerList := strings.Split(*peers, ",")
	var urls []string
	for _, p := range peerList {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, p)
		}
	}
	if len(urls) == 0 {
		fatal(fmt.Errorf("-peers is required (comma-separated base URLs)"))
	}
	policy, err := cluster.ParsePolicy(*partial)
	if err != nil {
		fatal(err)
	}
	router, err := engine.NewRouterFromOptions(core.Options{Alpha: *alpha, Dim: *dim, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	if *retries == 0 {
		*retries = cluster.NoRetries // the flag's 0 means none, not "default"
	}
	gw, err := cluster.New(cluster.Config{
		Peers:          urls,
		Router:         router,
		Dim:            *dim,
		Replicas:       *replicas,
		HandoffMax:     *handoff,
		Partial:        policy,
		RequestTimeout: *timeout,
		Retries:        *retries,
		RetryBackoff:   *backoff,
		DownAfter:      *downN,
		DownCooldown:   *cooldown,
		MaxStale:       *maxStale,
		WatchTimeout:   *watchTO,
		NoMetrics:      !*metrics,
		Trace:          *trace,
		SlowQuery:      *slowQ,
	})
	if err != nil {
		fatal(err)
	}
	defer gw.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: gw}
	// Shutdown waits for in-flight requests; closing the gateway first
	// ends the /watch long-polls a higher-tier gateway keeps parked here.
	httpSrv.RegisterOnShutdown(gw.Close)

	if *pprofA != "" {
		go func() {
			log.Printf("sketchgw: pprof on %s", *pprofA)
			if err := http.ListenAndServe(*pprofA, telemetry.PprofHandler()); err != nil {
				log.Printf("sketchgw: pprof: %v", err)
			}
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		ver, commit := telemetry.BuildInfo()
		log.Printf("sketchgw: build %s (%s), %d peers, replicas %d, policy %s, propagation push (max-stale %s), listening on %s",
			ver, commit, len(urls), *replicas, policy, *maxStale, *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}

	log.Printf("sketchgw: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("sketchgw: shutdown: %v", err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sketchgw:", err)
	os.Exit(1)
}
