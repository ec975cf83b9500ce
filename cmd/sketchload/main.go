// Command sketchload is the load/chaos harness: it drives configurable
// mixed ingest/query traffic at a sketchd daemon or sketchgw gateway,
// records HDR-style latency histograms per operation class, and emits a
// benchjson-compatible JSON report (BENCH_load.json) that
// `tools/benchjson -in ... -compare` can diff run over run.
//
// Two ways to pick a target:
//
//	sketchload -target http://localhost:7071 -points 200000 -conns 8
//	sketchload -spawn 3 -points 100000 -chaos flap
//
// -target drives an already-running endpoint; -spawn N builds a
// self-contained in-process fleet — N sketchd peers on loopback ports
// behind a sketchgw gateway — so CI can exercise the full
// cluster serving path with one binary and no orchestration.
//
// -chaos inserts chaosproxies (internal/loadgen/chaosproxy) between the
// gateway and the first -chaos-peers peer links (default 1) and runs the
// named failure scenario during the load phase:
//
//	flap        peer 0 alternates up/down (-flap-up/-flap-down), active
//	            connections reset on each down transition
//	correlated  all -chaos-peers proxied peers flap together in lockstep
//	            — a correlated failure (rack loss, AZ outage)
//	latency     every client→peer chunk is delayed by -chaos-latency
//	stall       the first response chunk of each connection is delayed
//
// Under -chaos flap/correlated the run is also a pass/fail availability
// check: the gateway must answer 100% of queries (stale or fresh — the
// serve-stale machinery's whole point), the breaker must be observed
// open or a stale serve recorded during the flap, and after the
// flapping stops the gateway must recover to all-peers-up, non-partial
// answers. With -replicas R > the number of flapped peers there is a
// fourth claim: quorum must hold, i.e. no query may ever report
// partial: true — every cell keeps a live owner throughout. Any
// violated verdict exits 1. Ingest requests routed to the dead peer
// legitimately fail during an unreplicated flap; they are reported but
// do not fail the scenario.
//
// See docs/load.md for the full flag reference, the report schema, and
// worked chaos scenarios.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/loadgen/chaosproxy"
	"repro/internal/server"
	"repro/internal/window"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main minus os.Exit so the exit paths stay testable.
func run(args []string) int {
	fs := flag.NewFlagSet("sketchload", flag.ContinueOnError)
	var (
		target  = fs.String("target", "", "base URL of a running sketchd/sketchgw to drive (mutually exclusive with -spawn)")
		spawn   = fs.Int("spawn", 0, "spin up this many in-process sketchd peers behind an in-process gateway and drive that")
		dim     = fs.Int("dim", 2, "point dimension")
		alpha   = fs.Float64("alpha", 1, "distance threshold α (spawn mode; must match the target otherwise)")
		seed    = fs.Uint64("seed", 1, "random seed for both the fleet and the traffic")
		shards  = fs.Int("shards", 2, "engine shards per spawned peer")
		conns   = fs.Int("conns", 4, "concurrent load connections")
		points  = fs.Int("points", 100000, "total points to ingest")
		batch   = fs.Int("batch", 200, "points per ingest request")
		qEvery  = fs.Int("query-every", 4, "one query per this many ingest batches (0 disables)")
		k       = fs.Int("k", 4, "samples per query")
		groups  = fs.Int("groups", 512, "distinct near-duplicate groups")
		zipfS   = fs.Float64("zipf", 1.2, "zipf exponent s>1 for group popularity")
		rate    = fs.Float64("rate", 0, "open-loop target points/s (0 = closed loop)")
		burst   = fs.Int("burst", 1, "batches per open-loop burst instant")
		windowW = fs.Int64("window", 0, "spawn time-window peers with width W and stamp ingest batches (0 = infinite window)")
		jitter  = fs.Int64("stamp-jitter", 0, "± stamp noise per windowed batch (keep below -window)")
		late    = fs.Float64("late", 0, "fraction of windowed batches stamped behind the frontier")
		chaos   = fs.String("chaos", "none", "failure scenario (spawn mode): none, flap, correlated, latency, stall")
		chaosN  = fs.Int("chaos-peers", 1, "how many peer links get a chaosproxy (correlated/latency/stall apply to all of them; flap flaps the first)")
		reps    = fs.Int("replicas", 1, "gateway replication factor (spawn mode): peers owning each routing cell")
		chaosD  = fs.Duration("chaos-latency", 50*time.Millisecond, "injected delay for -chaos latency/stall")
		flapUp  = fs.Duration("flap-up", 400*time.Millisecond, "up phase of -chaos flap")
		flapDn  = fs.Duration("flap-down", 400*time.Millisecond, "down phase of -chaos flap")
		stale   = fs.Duration("max-stale", 5*time.Second, "gateway -max-stale bound (spawn mode)")
		scrape  = fs.Bool("scrape", false, "snapshot the target's /metrics before and after the run and add the deltas to the report")
		out     = fs.String("out", "BENCH_load.json", "output report file")
		timeout = fs.Duration("timeout", 2*time.Minute, "overall run deadline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*target == "") == (*spawn == 0) {
		fmt.Fprintln(os.Stderr, "sketchload: exactly one of -target or -spawn is required")
		return 2
	}
	if *chaos != "none" && *spawn == 0 {
		fmt.Fprintln(os.Stderr, "sketchload: -chaos needs -spawn (the proxies sit between the spawned gateway and its peers)")
		return 2
	}
	switch *chaos {
	case "none", "flap", "correlated", "latency", "stall":
	default:
		fmt.Fprintf(os.Stderr, "sketchload: unknown -chaos %q (want none, flap, correlated, latency, or stall)\n", *chaos)
		return 2
	}
	if *spawn > 0 {
		if *chaosN < 1 || *chaosN > *spawn {
			fmt.Fprintf(os.Stderr, "sketchload: -chaos-peers %d out of range [1, %d]\n", *chaosN, *spawn)
			return 2
		}
		if *reps < 1 || *reps > *spawn {
			fmt.Fprintf(os.Stderr, "sketchload: -replicas %d out of range [1, %d]\n", *reps, *spawn)
			return 2
		}
	}

	if *windowW > 0 && *k > 1 {
		// WindowL0 answers single-sample queries only; a k>1 query is a
		// 400 on every windowed target, so clamp instead of failing the
		// whole run on the first query.
		log.Printf("sketchload: windowed sketches are single-sample, clamping -k %d → 1", *k)
		*k = 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cfg := loadgen.Config{
		Target:       *target,
		Dim:          *dim,
		Conns:        *conns,
		Points:       *points,
		BatchSize:    *batch,
		QueryEvery:   *qEvery,
		K:            *k,
		Groups:       *groups,
		ZipfS:        *zipfS,
		Rate:         *rate,
		Burst:        *burst,
		Windowed:     *windowW > 0,
		StampJitter:  *jitter,
		LateFraction: *late,
		Seed:         *seed,
	}

	var fl *fleet
	if *spawn > 0 {
		var err error
		chaosPeers := 0
		if *chaos != "none" {
			chaosPeers = *chaosN
		}
		fl, err = startFleet(fleetConfig{
			peers: *spawn, shards: *shards, dim: *dim, alpha: *alpha,
			seed: *seed, windowW: *windowW, maxStale: *stale,
			chaosPeers: chaosPeers, replicas: *reps,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sketchload:", err)
			return 2
		}
		defer fl.stop()
		cfg.Target = fl.gwURL
		log.Printf("sketchload: spawned %d peers (replicas %d) + gateway at %s", *spawn, *reps, fl.gwURL)
	}

	desc := fmt.Sprintf("sketchload conns=%d batch=%d zipf=%g groups=%d chaos=%s spawn=%d replicas=%d",
		*conns, *batch, *zipfS, *groups, *chaos, *spawn, *reps)

	// Warm the target before any chaos: the gateway needs at least one
	// complete fold to serve stale from, and verdicts about staleness
	// are meaningless against an empty cache.
	if fl != nil {
		if err := warmup(ctx, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "sketchload: warmup:", err)
			return 2
		}
	}

	// -scrape brackets the load phase (after warmup, before chaos) so
	// the deltas attribute server-side work to this run alone.
	var before map[string]float64
	scrapeClient := &http.Client{Timeout: 5 * time.Second}
	if *scrape {
		var err error
		if before, err = loadgen.ScrapeMetrics(scrapeClient, cfg.Target); err != nil {
			fmt.Fprintln(os.Stderr, "sketchload: -scrape:", err)
			return 2
		}
	}

	var (
		mon      *statsMonitor
		stopFlap func()
	)
	switch *chaos {
	case "flap":
		mon = monitorStats(ctx, cfg.Target)
		stopFlap = fl.proxies[0].Flap(*flapUp, *flapDn)
		log.Printf("sketchload: flapping peer 0 (%v up / %v down)", *flapUp, *flapDn)
	case "correlated":
		mon = monitorStats(ctx, cfg.Target)
		stops := make([]func(), len(fl.proxies))
		for i, p := range fl.proxies {
			stops[i] = p.Flap(*flapUp, *flapDn)
		}
		stopFlap = func() {
			for _, s := range stops {
				s()
			}
		}
		log.Printf("sketchload: flapping peers 0..%d together (%v up / %v down)", len(fl.proxies)-1, *flapUp, *flapDn)
	case "latency":
		for _, p := range fl.proxies {
			p.SetLatency(*chaosD)
		}
	case "stall":
		for _, p := range fl.proxies {
			p.SetStall(*chaosD)
		}
	}

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchload:", err)
		return 2
	}
	log.Printf("sketchload: %d points in %v (%.0f pts/s), %d queries (%.0f q/s), %d ingest errors, %d query errors",
		res.Points, res.Elapsed.Round(time.Millisecond), res.IngestRate(),
		res.Queries, res.QueryRate(), res.IngestErrors, res.QueryErrors)

	rep := loadgen.BuildReport(res, desc, fmt.Sprintf("%dpts", *points))

	if *scrape {
		after, err := loadgen.ScrapeMetrics(scrapeClient, cfg.Target)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sketchload: -scrape:", err)
			return 2
		}
		stages := loadgen.StageDeltas(loadgen.MetricsDelta(before, after))
		rep.Append("Load/server", loadgen.HistSnapshot{Count: 1}, 0, 0, stages)
		log.Printf("sketchload: scraped %d server-side deltas from %s/metrics", len(stages), cfg.Target)
	}

	exit := 0
	if *chaos == "flap" || *chaos == "correlated" {
		flapped := 1
		if *chaos == "correlated" {
			flapped = len(fl.proxies)
		}
		verdict, ok := flapVerdict(ctx, cfg, fl, mon, stopFlap, res, *reps, flapped)
		rep.Append("Load/chaos-flap", loadgen.HistSnapshot{Count: 1}, 0, 0, verdict)
		if !ok {
			exit = 1
		}
	}

	if err := rep.WriteFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "sketchload:", err)
		return 2
	}
	log.Printf("sketchload: report → %s", *out)
	return exit
}

// warmup pushes one small batch through the target and waits for a 200
// query so the serving cache holds a complete fold.
func warmup(ctx context.Context, cfg loadgen.Config) error {
	w := cfg
	w.Points = 4 * w.BatchSize
	w.QueryEvery = 1
	w.Conns = 1
	w.Rate = 0
	res, err := loadgen.Run(ctx, w)
	if err != nil {
		return err
	}
	if res.IngestErrors > 0 || res.QueryErrors > 0 || res.Queries == 0 {
		return fmt.Errorf("target not healthy before chaos: %d/%d ingest errors, %d/%d query errors",
			res.IngestErrors, res.Points, res.QueryErrors, res.Queries)
	}
	return nil
}

// flapVerdict evaluates the chaos scenario's claims and returns them as
// report metrics (1 pass / 0 fail) plus the overall pass. The first
// three claims always apply; the quorum claim arms only when the
// replication factor exceeds the number of flapped peers — then every
// cell provably kept a live owner, so no query may have been partial.
func flapVerdict(ctx context.Context, cfg loadgen.Config, fl *fleet, mon *statsMonitor, stopFlap func(), res *loadgen.Result, replicas, flapped int) (map[string]float64, bool) {
	// Claim 1: every query during the flap was answered.
	available := res.Queries > 0 && res.QueryErrors == 0

	// Claim 2: the degradation machinery actually engaged — the breaker
	// was observed open, or a stale serve was recorded.
	mon.stop()
	degraded := mon.sawBreakerOpen.Load() || mon.sawStaleServe.Load()

	// Claim 3: with the proxies back up, the gateway re-folds to
	// all-peers-up, non-partial answers.
	stopFlap()
	recovered := waitRecovered(ctx, cfg, fl.peerCount)

	// Claim 4 (replicated runs only): quorum held — the partial-query
	// counter never moved while peers flapped, because every cell kept a
	// live owner among its R replicas.
	quorumArmed := replicas > flapped
	quorumHeld := !mon.sawPartialGrowth.Load()

	ok := available && degraded && recovered && (!quorumArmed || quorumHeld)
	verdict := map[string]float64{
		"available":        b2f(available),
		"degraded-serving": b2f(degraded),
		"recovered":        b2f(recovered),
		"max-staleness-ms": float64(res.MaxStalenessMS),
		"ingest-errors":    float64(res.IngestErrors),
	}
	if quorumArmed {
		verdict["quorum-held"] = b2f(quorumHeld)
		log.Printf("sketchload: chaos verdict: available=%v degraded-but-serving=%v recovered=%v quorum-held=%v (max staleness served %dms)",
			available, degraded, recovered, quorumHeld, res.MaxStalenessMS)
	} else {
		log.Printf("sketchload: chaos verdict: available=%v degraded-but-serving=%v recovered=%v (max staleness served %dms)",
			available, degraded, recovered, res.MaxStalenessMS)
	}
	return verdict, ok
}

// waitRecovered polls the gateway until every peer is up and a query
// answers non-partial, or 30s pass.
func waitRecovered(ctx context.Context, cfg loadgen.Config, peers int) bool {
	deadline := time.Now().Add(30 * time.Second)
	client := &http.Client{Timeout: 5 * time.Second}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		var st cluster.StatsResponse
		if getJSON(client, cfg.Target+"/stats", &st) == nil && st.PeersUp == peers {
			var q struct {
				Partial bool `json:"partial"`
			}
			if getJSON(client, fmt.Sprintf("%s/query?k=%d", cfg.Target, cfg.K), &q) == nil && !q.Partial {
				return true
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return false
}

// statsMonitor samples the gateway's /stats during the chaos phase and
// latches whether the breaker was ever seen open, whether any stale
// serve was recorded, and whether the partial-query counter grew past
// its first sample (the warmup may have raced a not-yet-complete fold,
// so the baseline is the first observation, not zero).
type statsMonitor struct {
	sawBreakerOpen   atomic.Bool
	sawStaleServe    atomic.Bool
	sawPartialGrowth atomic.Bool
	cancel           context.CancelFunc
	done             chan struct{}
}

func monitorStats(ctx context.Context, target string) *statsMonitor {
	ctx, cancel := context.WithCancel(ctx)
	m := &statsMonitor{cancel: cancel, done: make(chan struct{})}
	client := &http.Client{Timeout: 2 * time.Second}
	go func() {
		defer close(m.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		partialBase := int64(-1)
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			var st cluster.StatsResponse
			if getJSON(client, target+"/stats", &st) != nil {
				continue
			}
			if st.StaleServes > 0 {
				m.sawStaleServe.Store(true)
			}
			if partialBase < 0 {
				partialBase = st.PartialQueries
			} else if st.PartialQueries > partialBase {
				m.sawPartialGrowth.Store(true)
			}
			for _, p := range st.Peers {
				if !p.Up {
					m.sawBreakerOpen.Store(true)
				}
			}
		}
	}()
	return m
}

func (m *statsMonitor) stop() {
	m.cancel()
	<-m.done
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// fleetConfig shapes an in-process peer fleet.
type fleetConfig struct {
	peers      int
	shards     int
	dim        int
	alpha      float64
	seed       uint64
	windowW    int64
	maxStale   time.Duration
	chaosPeers int // peer links fronted by a chaosproxy (0 = none)
	replicas   int // gateway replication factor (0 = default 1)
}

// fleet is a self-contained serving topology on loopback ports: N
// sketchd peers, optional chaosproxies in front of the first links, and
// a gateway federating them.
type fleet struct {
	engines   []*engine.Engine
	servers   []*http.Server
	gw        *cluster.Gateway
	gwSrv     *http.Server
	gwURL     string
	proxies   []*chaosproxy.Proxy
	peerCount int
}

func startFleet(fc fleetConfig) (*fleet, error) {
	opts := core.Options{
		Alpha:       fc.alpha,
		Dim:         fc.dim,
		StreamBound: 1 << 20,
		K:           8,
		Seed:        fc.seed,
		HighDim:     true,
	}
	fl := &fleet{peerCount: fc.peers}
	ecfg := engine.Config{Shards: fc.shards}
	windowed := fc.windowW > 0
	win := window.Window{Kind: window.Time, W: fc.windowW}
	peerURLs := make([]string, fc.peers)
	for i := 0; i < fc.peers; i++ {
		var (
			eng *engine.Engine
			err error
		)
		if windowed {
			eng, err = engine.NewWindowSamplerEngine(opts, win, ecfg)
		} else {
			eng, err = engine.NewSamplerEngine(opts, ecfg)
		}
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.engines = append(fl.engines, eng)
		srv, err := server.New(server.Config{Engine: eng, Dim: fc.dim})
		if err != nil {
			fl.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fl.stop()
			return nil, err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		fl.servers = append(fl.servers, hs)
		peerURLs[i] = "http://" + ln.Addr().String()
	}

	gwPeers := append([]string(nil), peerURLs...)
	for i := 0; i < fc.chaosPeers; i++ {
		p, err := chaosproxy.New(peerURLs[i])
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.proxies = append(fl.proxies, p)
		gwPeers[i] = p.URL()
	}

	router, err := engine.NewRouterFromOptions(core.Options{Alpha: fc.alpha, Dim: fc.dim, Seed: fc.seed})
	if err != nil {
		fl.stop()
		return nil, err
	}
	gw, err := cluster.New(cluster.Config{
		Peers:          gwPeers,
		Router:         router,
		Dim:            fc.dim,
		Replicas:       fc.replicas,
		HandoffRetry:   100 * time.Millisecond,
		Partial:        cluster.PartialDegrade,
		RequestTimeout: 2 * time.Second,
		Retries:        cluster.NoRetries,
		RetryBackoff:   20 * time.Millisecond,
		DownAfter:      2,
		DownCooldown:   200 * time.Millisecond,
		MaxStale:       fc.maxStale,
		WatchTimeout:   5 * time.Second,
	})
	if err != nil {
		fl.stop()
		return nil, err
	}
	fl.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fl.stop()
		return nil, err
	}
	fl.gwSrv = &http.Server{Handler: gw}
	go fl.gwSrv.Serve(ln)
	fl.gwURL = "http://" + ln.Addr().String()
	return fl, nil
}

// stop tears the fleet down in dependency order: gateway first (its
// watchers hold peer connections), then the proxies, then the peers.
func (fl *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if fl.gwSrv != nil {
		fl.gwSrv.Shutdown(ctx)
	}
	if fl.gw != nil {
		fl.gw.Close()
	}
	for _, p := range fl.proxies {
		p.Close()
	}
	for _, hs := range fl.servers {
		hs.Shutdown(ctx)
	}
	for _, eng := range fl.engines {
		eng.Close()
	}
}
