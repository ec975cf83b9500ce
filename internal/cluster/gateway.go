// Package cluster federates a fleet of sketchd daemons behind one
// endpoint: the gateway behind cmd/sketchgw. N peers, each running a
// sharded sketch engine over identical options and seed, are treated as
// one logical sketch — the distributed extension of the same mergeability
// property internal/engine uses to shard within a process:
//
//   - Routed ingest: POST /ingest batches are partitioned by the hash of
//     each point's routing-grid cell (engine.Router — the same grid the
//     peers shard by), so every point lands on exactly one peer and a
//     near-duplicate group lands together with high probability.
//   - Scatter-gather fold: a scatter round fetches the serialized merged
//     snapshot of every live peer (GET /sketch) in parallel, decodes the
//     first with sketch.Deserialize, and decodes each other one straight
//     into it with sketch.MergeSerialized; boundary groups are repaired
//     by the merge's α-ball coalescing, exactly as between shards.
//   - Push propagation (push.go): one watcher per peer long-polls the
//     peer's GET /watch, GET /query and GET /sketch answer from the last
//     installed fold, and a background refresher runs the scatter rounds
//     off the request path.
//   - Partial failure is policy: PartialFail turns any unreachable peer
//     into a 502, PartialDegrade (the default) answers from the live
//     subset with "partial": true in the response.
//   - Cached fold: the last installed union answers every query until a
//     push marks it dirty, and each query draws fresh samples from it, as
//     a daemon does from its snapshot. A round decodes every fetched peer
//     once, as the fold receiver or into it, and holds the cache lock
//     only to install; handlers hold it only to answer.
//
// The gateway exposes the same HTTP API as a single daemon (/ingest,
// /query, /stats, /healthz — and /sketch and /watch, so gateways stack
// into trees), so clients are oblivious to whether they talk to one node
// or a cluster. Topology, failure semantics, routing, and the cache are
// documented in docs/cluster.md.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/pkg/sketch"
)

// Policy selects how a query behaves when some peers are unreachable.
type Policy string

// The partial-failure policies. PartialDegrade answers from the live
// peers and marks the response partial; PartialFail refuses with 502.
const (
	PartialDegrade Policy = "degrade"
	PartialFail    Policy = "fail"
)

// ParsePolicy parses a -partial flag value.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PartialDegrade, PartialFail:
		return Policy(s), nil
	default:
		return "", fmt.Errorf("cluster: unknown partial-failure policy %q (want %q or %q)",
			s, PartialDegrade, PartialFail)
	}
}

// NoRetries is the Config.Retries value that disables retries (the zero
// value selects the default instead).
const NoRetries = -1

// errNoPeers means every peer failed: there is no live subset to degrade
// to, so the query fails under either policy.
var errNoPeers = errors.New("cluster: no live peers")

// errPartialRefused marks a partial fan-out refused under PartialFail.
var errPartialRefused = errors.New("cluster: partial result refused")

// errKeptComplete marks a scatter round that came back partial and was
// not installed, because the complete fold it would replace is still
// within MaxStale (see keepCompleteLocked). The cached fold stays
// servable, so callers holding one serve it.
var errKeptComplete = errors.New("cluster: partial round not installed over a complete fold within max-stale")

// federateStatus maps a federate error to its HTTP status: upstream
// failures (unreachable peers) are 502, anything else — a non-mergeable
// family, a merge rejected by mismatched peer options — is a gateway
// configuration or logic problem and answers 500, mirroring the
// single-daemon classification.
func federateStatus(err error) int {
	if errors.Is(err, errNoPeers) || errors.Is(err, errPartialRefused) {
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}

// Config configures a Gateway.
type Config struct {
	// Peers are the base URLs of the sketchd daemons, e.g.
	// "http://10.0.0.1:7070". Required, at least one. Order matters: it is
	// the routing order, and must be stable across gateway restarts or
	// routed groups change peers (harmless for correctness of the union,
	// but splits groups across peers until they coalesce at merge time).
	Peers []string

	// Router maps points to peers (reduced mod len(Peers)); points of one
	// near-duplicate group should route together. Build it with
	// engine.NewRouterFromOptions over the same options the peers run.
	// Required.
	Router engine.Router

	// Dim is the point dimension used to parse ingest bodies. Required.
	Dim int

	// Replicas is the number of peers that own each routing cell (R-way
	// replicated placement; see engine.NewPlacement). The default 1
	// reproduces the single-owner routing bit for bit. With R > 1 routed
	// ingest fans each sub-batch to every owner, folds stay complete
	// (partial: false) while fewer than R peers are down, and a replica
	// that missed writes is brought back in line by read repair
	// (repair.go). At most engine.MaxReplicas and at most len(Peers).
	Replicas int

	// Partial is the partial-failure policy for queries. Under replication
	// it applies to quorum-partial folds only: a fold missing fewer than
	// Replicas peers is complete, not partial. Defaults to PartialDegrade.
	Partial Policy

	// RequestTimeout bounds each attempt of each peer request. Defaults
	// to 5s.
	RequestTimeout time.Duration

	// Retries is the number of extra attempts per peer request after the
	// first, retryBackoff apart (linear). Only failures that might be
	// transient retry: network errors and 502–504 responses; any other
	// status is a deterministic answer and fails immediately. Defaults to
	// 2; use NoRetries to disable.
	Retries int

	// DownAfter is the number of consecutive failed requests after which a
	// peer's circuit breaker opens. Defaults to 3.
	DownAfter int

	// DownCooldown is how long an open breaker skips the peer before the
	// next request probes it again. Defaults to 2s.
	DownCooldown time.Duration

	// MaxStale bounds how stale a served fold may be: when the cache is
	// dirty (or the watchers are unhealthy) and the last good fold is
	// older than MaxStale, the query pays a synchronous refresh instead
	// of serving stale. Within the bound a complete fold is never
	// replaced by a partial one, and a dirty fold no query has asked
	// about is re-folded in the background after MaxStale/2. 0 selects
	// the 5s default; negative means no bound (always serve stale,
	// revalidate in background when queries ask).
	MaxStale time.Duration

	// WatchTimeout is the long-poll timeout requested from peers'
	// GET /watch (the watcher reconnects on expiry), and the ceiling of
	// the gateway's own GET /watch. Defaults to 25s.
	WatchTimeout time.Duration

	// Trace makes the gateway mint an X-Sketch-Trace ID for requests
	// that arrive without one (inbound IDs are always honored and
	// propagated either way). Off by default: minting allocates, and
	// embedded gateways (tests, benchmarks) usually don't want it.
	Trace bool

	// NoMetrics disables the GET /metrics Prometheus exposition endpoint
	// and the per-stage latency histograms behind it. Trace propagation
	// and the slow-query log still work.
	NoMetrics bool

	// SlowQuery arms the slow-query log: any instrumented request slower
	// than this threshold emits one structured JSON line (schema in
	// docs/observability.md) to SlowQueryWriter. Zero disables it.
	SlowQuery time.Duration

	// SlowQueryWriter receives slow-query log lines. Defaults to
	// os.Stderr.
	SlowQueryWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.Partial == "" {
		c.Partial = PartialDegrade
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 2 * time.Second
	}
	if c.MaxStale == 0 {
		c.MaxStale = 5 * time.Second
	}
	if c.WatchTimeout <= 0 {
		c.WatchTimeout = 25 * time.Second
	}
	return c
}

// Gateway is the scatter-gather HTTP front end over a peer fleet. All
// handlers are safe for concurrent use; queries serialize on the
// installed fold (cacheMu), mirroring how a single daemon serializes
// snapshot queries on the engine's snapshot cache.
type Gateway struct {
	cfg       Config
	peers     []*peer
	placement engine.Placement // cell → R owning peers (R=1 is the legacy single-owner routing)
	mux       *http.ServeMux
	client    *http.Client
	start     time.Time

	// The installed fold (see scatter): the merged union, its fan-out and
	// its per-peer epochs. cacheMu guards them and hands the merged
	// sketch to one query at a time — queries advance its RNG and QueryK
	// reorders its accept set while drawing, so unsynchronized sharing
	// would race. A scatter round fetches, decodes and merges sketches
	// only it holds, so the lock is held only to install a fold and to
	// answer from one.
	cacheMu sync.Mutex

	// flightMu/inflight deduplicate concurrent scatter rounds: one
	// leader runs the round (and is the only installer), followers wait
	// for its outcome. Without this, a slow not-yet-broken peer would
	// make every concurrent query pay its own full timeout-bounded round
	// back to back.
	flightMu     sync.Mutex
	inflight     *flight
	merged       sketch.Mergeable // nil until the first install
	mergedFo     fanout
	mergedEpochs []int64             // per-peer ingest epochs of the fold; -1 = down/unknown
	exportGen    engine.EpochCounter // bumped by every install; stamps GET /sketch, and GET /watch waits on it

	// Push-propagation state (see push.go). dirtyGen counts invalidation
	// events observed by the watchers; lastRoundGen is the dirtyGen value
	// a scatter round read *before* its network phase, stamped on install
	// — the fold is stale exactly when dirtyGen > lastRoundGen, and a
	// push landing during an in-flight round keeps the cache dirty
	// because the round's startGen predates it (no lost invalidation).
	// lastFresh is the unix-nano install time of the last good fold.
	dirtyGen     atomic.Int64
	lastRoundGen atomic.Int64
	lastFresh    atomic.Int64
	refreshKick  chan struct{}      // asks the background refresher for one round (capacity 1)
	stop         chan struct{}      // closed by Close; stops watchers and refresher
	stopCtx      context.Context    // canceled by Close; aborts in-flight watch polls
	stopCancel   context.CancelFunc //
	watcherWG    sync.WaitGroup
	closeOnce    sync.Once

	maxStalenessNs atomic.Int64 // maximum fold staleness observed at serve time

	// The /stats counters, owned by stats (declared in initTelemetry,
	// where each one's meaning is its help text).
	stats            *telemetry.Stats
	ingestRequests   *atomic.Int64
	pointsRouted     *atomic.Int64
	queries          *atomic.Int64
	partialQueries   *atomic.Int64
	replicaFanout    *atomic.Int64
	readRepairs      *atomic.Int64
	fedCacheMisses   *atomic.Int64
	peerDeserializes *atomic.Int64
	sketchMerges     *atomic.Int64
	watchPushes      *atomic.Int64
	bgRefreshes      *atomic.Int64
	staleServes      *atomic.Int64
	syncRefreshes    *atomic.Int64

	reg  *telemetry.Registry // /metrics families; nil when NoMetrics
	slow *telemetry.SlowLog
	tel  gwTelemetry
}

// New builds a Gateway over the configured peers.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: Config.Peers is required")
	}
	if cfg.Router == nil {
		return nil, fmt.Errorf("cluster: Config.Router is required (engine.NewRouterFromOptions)")
	}
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("cluster: Config.Dim must be ≥ 1, got %d", cfg.Dim)
	}
	pl, err := engine.NewPlacement(len(cfg.Peers), cfg.Replicas)
	if err != nil {
		return nil, fmt.Errorf("cluster: Config.Replicas: %w", err)
	}
	// The peer client keeps one warm connection per peer for scatter
	// rounds plus one parked in the peer's /watch long-poll: with the
	// stdlib's 2-per-host idle default, warm rounds would close and
	// re-dial connections once the fleet has more than a couple of
	// peers. Per-attempt timeouts come from RequestTimeout.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = max(8, 2*len(cfg.Peers))
	tr.MaxIdleConns = max(tr.MaxIdleConns, 2*len(cfg.Peers)+8)
	g := &Gateway{cfg: cfg, placement: pl, mux: http.NewServeMux(), client: &http.Client{Transport: tr}, start: time.Now()}
	g.peers = make([]*peer, len(cfg.Peers))
	for i, raw := range cfg.Peers {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %d: %q is not an absolute URL", i, raw)
		}
		g.peers[i] = &peer{url: strings.TrimRight(raw, "/")}
		g.peers[i].watchOK.Store(true)
	}
	g.initTelemetry()
	g.mux.HandleFunc("POST /ingest", g.handleIngest)
	g.mux.HandleFunc("GET /query", g.handleQuery)
	g.mux.HandleFunc("GET /sketch", g.handleSketch)
	g.mux.HandleFunc("GET /watch", g.handleWatch)
	g.mux.HandleFunc("GET /stats", g.handleStats)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	if g.reg != nil {
		g.mux.Handle("GET /metrics", g.reg)
	}
	g.stop = make(chan struct{})
	g.stopCtx, g.stopCancel = context.WithCancel(context.Background())
	g.refreshKick = make(chan struct{}, 1)
	g.watcherWG.Add(1)
	go g.refresher()
	for i, p := range g.peers {
		g.watcherWG.Add(1)
		go g.watchPeer(i, p)
	}
	if cfg.Replicas > 1 {
		g.watcherWG.Add(1)
		go g.repairer()
	}
	return g, nil
}

// Close stops the background machinery: the per-peer watchers (aborting
// their in-flight long-polls), the background refresher, and the read
// repairer. The owner must call it when done with the gateway.
// Idempotent. In-flight HTTP requests served by the gateway are
// unaffected, except that parked GET /watch long-polls answer at once.
// Repair marks still set when Close returns are dropped with the gateway.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		g.stopCancel()
	})
	g.watcherWG.Wait()
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// QueryResponse is the JSON body of a successful GET /query: the single-
// daemon response plus federation metadata. A non-partial response is
// indistinguishable from one daemon's answer apart from the extra fields.
type QueryResponse struct {
	server.QueryResponse

	// Partial is true when the answer may be missing data: the fold lost
	// at least Replicas peers — i.e. possibly every owner of some routing
	// cell — or a contributing peer flagged its own fold partial
	// (PartialDegrade only; PartialFail errors instead). With replication,
	// folds missing fewer than Replicas peers are complete and Partial
	// stays false.
	Partial bool `json:"partial"`
	// Replicas is the configured replication factor: every routing cell
	// is owned by this many peers.
	Replicas int `json:"replicas"`
	// PeersTotal is the configured fleet size.
	PeersTotal int `json:"peers_total"`
	// PeersOK is the number of peers whose sketch contributed.
	PeersOK int `json:"peers_ok"`
	// FailedPeers lists the base URLs that were down or failed.
	FailedPeers []string `json:"failed_peers,omitempty"`
	// DegradedPeers lists peers (themselves gateways) that contributed a
	// fold they flagged as partial — their own failures are hidden behind
	// them, so the answer is partial even though they responded.
	DegradedPeers []string `json:"degraded_peers,omitempty"`
}

// PeerStatus is one peer's health in GET /stats.
type PeerStatus struct {
	// URL is the peer's base URL.
	URL string `json:"url"`
	// Up is true only while the peer's circuit breaker is closed; a
	// tripped peer stays down until a successful probe.
	Up bool `json:"up"`
	// Requests counts requests issued to the peer (retries count once).
	Requests int64 `json:"requests"`
	// Failures counts requests that failed after all retries.
	Failures int64 `json:"failures"`
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int64 `json:"consecutive_failures"`
	// LastError is the most recent failure, if any.
	LastError string `json:"last_error,omitempty"`
	// WatchOK reports whether the peer's watcher is healthy.
	WatchOK bool `json:"watch_ok"`
}

// StatsResponse is the JSON body of GET /stats: gateway-local counters
// and per-peer health. It deliberately does not scatter to the peers —
// hit a peer's /stats directly for engine internals.
type StatsResponse struct {
	// Version is the binary's build version (ldflags or module info).
	Version string `json:"version"`
	// Commit is the binary's VCS revision, when known.
	Commit string `json:"commit"`
	// Peers is the per-peer health and traffic table.
	Peers []PeerStatus `json:"peers"`
	// PeersUp counts peers whose breaker is currently closed.
	PeersUp int `json:"peers_up"`
	// Replicas is the configured replication factor: each routing cell is
	// owned by this many peers (1 = unreplicated).
	Replicas int `json:"replicas"`
	// QuorumOK reports whether every routing cell currently has at least
	// one live owner (fewer than Replicas peers down, and at least one
	// up). While true, folds are complete and queries answer with
	// partial: false even though peers may be down.
	QuorumOK bool `json:"quorum_ok"`
	// ReplicaFanout counts the extra point copies routed to replica
	// owners, beyond the one primary copy per point (0 when Replicas
	// is 1).
	ReplicaFanout int64 `json:"replica_fanout"`
	// ReadRepairs counts replicas repaired by shipping them the merged
	// slice of the cell space they own (POST /sketch): replicas that missed
	// a forward, and replicas whose breaker opened.
	ReadRepairs int64 `json:"read_repairs"`
	// PartialPolicy is the configured partial-failure policy.
	PartialPolicy Policy `json:"partial_policy"`
	// StartedAt is when the gateway was built (RFC 3339).
	StartedAt string `json:"started_at"`
	// UptimeSeconds is the time since the gateway was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// IngestRequests counts POST /ingest calls served.
	IngestRequests int64 `json:"ingest_requests"`
	// PointsRouted counts points forwarded to peers.
	PointsRouted int64 `json:"points_routed"`
	// Queries counts GET /query and GET /sketch requests served (most are
	// answered from the cached fold with no fan-out at all).
	Queries int64 `json:"queries"`
	// PartialQueries counts fan-outs answered from a strict peer subset.
	PartialQueries int64 `json:"partial_queries"`
	// FedCacheMisses counts scatter rounds that folded and installed the
	// union.
	FedCacheMisses int64 `json:"fed_cache_misses"`
	// PeerDeserializes counts peer sketch envelopes decoded: one per peer
	// whose /sketch a scatter round decoded, as the fold receiver or
	// into it (zero across a warm-cache query).
	PeerDeserializes int64 `json:"peer_deserializes"`
	// SketchMerges counts peer sketches folded into a fold receiver
	// (sketch.MergeSerialized; zero across a warm-cache query).
	SketchMerges int64 `json:"sketch_merges"`
	// WatchPushes counts epoch changes received from peers over /watch
	// long-polls (each marks the federated cache dirty).
	WatchPushes int64 `json:"watch_pushes"`
	// BgRefreshes counts scatter rounds run by the background refresher,
	// off the request path: at most one per trigger (the first push after
	// a clean fold, a stale serve, or the MaxStale/2 backstop) that found
	// the fold dirty.
	BgRefreshes int64 `json:"bg_refreshes"`
	// StaleServes counts queries answered from the cached fold with zero
	// peer round trips on the request path.
	StaleServes int64 `json:"stale_serves"`
	// SyncRefreshes counts queries that paid a synchronous fan-out (cold
	// cache, or the staleness bound was exceeded).
	SyncRefreshes int64 `json:"sync_refreshes"`
	// MaxStalenessMS is the maximum fold staleness observed at serve
	// time, in milliseconds (0 until a stale fold is ever served).
	MaxStalenessMS float64 `json:"max_staleness_ms"`
}

// forwardChunkBytes caps one forwarded packed-binary sub-batch body —
// half the peers' server.MaxBodyBytes, so an accepted gateway ingest can
// always be forwarded regardless of how much the text→binary re-encoding
// expanded it.
const forwardChunkBytes = server.MaxBodyBytes / 2

// forwardBufPool recycles the packed-binary bodies of routed ingest
// sub-batches: a gateway under ingest load would otherwise allocate one
// body per peer per request, each up to forwardChunkBytes.
var forwardBufPool = sync.Pool{New: func() any { b := []byte(nil); return &b }}

// getForwardBuf takes a cleared forward-body buffer from the pool.
//
//sketch:hotpath
func getForwardBuf() []byte { return (*forwardBufPool.Get().(*[]byte))[:0] }

// putForwardBuf returns a forward-body buffer to the pool.
func putForwardBuf(b []byte) {
	b = b[:0]
	forwardBufPool.Put(&b)
}

// partialHeader marks a /sketch export folded from a strict peer subset;
// stacked gateways propagate it upward instead of laundering a degraded
// fold into a seemingly complete one.
const partialHeader = "X-Sketch-Partial"

// fanout summarizes one scatter-gather round.
type fanout struct {
	ok       int
	replicas int      // replication factor the round ran under (0 and 1 mean unreplicated)
	failed   []string // base URLs that were down or failed
	degraded []string // base URLs that answered but flagged their own fold partial
}

// partial reports whether the fold may be missing data. With R-way
// replicated placement every routing cell is owned by R distinct peers,
// so as long as fewer than R peers are missing from the round the union
// of the live subset still contains every cell — folding several owners
// of one cell is a free no-op (sketch union is idempotent), and folding
// at least one is completeness. Only when R or more peers are missing
// can some cell have lost all its owners, and only then is the answer
// partial. Degraded peers (stacked gateways whose own fold was partial)
// always taint the fold: what they are missing is unknown.
func (f fanout) partial() bool {
	return len(f.degraded) > 0 || len(f.failed) >= max(f.replicas, 1)
}

// scatterResult is one peer's outcome in a refresh round.
type scatterResult struct {
	ok       bool   // the peer's /sketch was fetched (and, once folded, decoded)
	blob     []byte // the peer's /sketch
	epoch    int64  // peer's ingest epoch; -1 when down or not served
	degraded bool   // the peer (itself a gateway) flagged its fold partial
}

// flight is one in-progress scatter round shared by concurrent queries.
type flight struct {
	done chan struct{}
	err  error
}

// refresh brings the federated cache up to date, deduplicating
// concurrent callers onto one scatter round: the first caller leads the
// network round, later ones wait for its outcome and then answer from
// the freshly installed cache. Callers must NOT hold cacheMu. The round
// is detached from the leader's request context (it outlives a client
// disconnect; per-attempt timeouts still bound it), so followers never
// inherit a stranger's cancellation.
func (g *Gateway) refresh(ctx context.Context) error {
	g.flightMu.Lock()
	if f := g.inflight; f != nil {
		g.flightMu.Unlock()
		select {
		case <-f.done:
			return f.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.inflight = f
	g.flightMu.Unlock()
	// telemetry.Detach, not context.WithoutCancel: the stdlib wrapper
	// costs one allocation per Value lookup, which the per-peer trace
	// propagation in attempt() would pay on every scatter fetch.
	f.err = g.scatter(telemetry.Detach(ctx))
	g.flightMu.Lock()
	g.inflight = nil
	g.flightMu.Unlock()
	close(f.done)
	return f.err
}

// scatter runs one fan-out round and installs its fold. Only the flight
// leader runs it, so a round is the only installer while it runs. Every
// live peer gets a GET /sketch; the first fetched blob in peer order
// that decodes is the fold receiver, and every other blob is decoded
// straight into it (sketch.MergeSerialized). A blob that does not decode
// counts its peer as failed and leaves the fold as it was. The round
// owns the receiver, so the fetch and fold run without cacheMu: the lock
// is taken to check the installed fold before folding and again to
// install. Every install bumps the export generation, which stamps the
// gateway's own GET /sketch and which its GET /watch serves. The error
// is non-nil when no peer contributed, when the round is partial under
// PartialFail, or when it is partial and a complete fold within MaxStale
// stays (errKeptComplete) — the cache, dirtiness included, is left
// untouched in every case.
func (g *Gateway) scatter(ctx context.Context) error {
	// The generation read MUST precede the network round: an invalidation
	// that lands while the round is in flight may or may not be reflected
	// in the fetched snapshots, so stamping any later generation on
	// install could mark the cache clean past an unseen ingest.
	startGen := g.dirtyGen.Load()
	res := make([]scatterResult, len(g.peers))
	errs := make([]error, len(g.peers))
	now := time.Now()
	var wg sync.WaitGroup
	for i, p := range g.peers {
		res[i].epoch = -1
		if !p.admit(now, g.cfg.DownCooldown) {
			errs[i] = fmt.Errorf("cluster: peer %s is down (circuit open)", p.url)
			continue
		}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			tFetch := time.Now()
			blob, hdr, err := g.do(ctx, p, http.MethodGet, "/sketch", "", nil, nil)
			telemetry.Observe(g.tel.fetch, nil, "", time.Since(tFetch))
			if err != nil {
				errs[i] = err
				return
			}
			res[i] = scatterResult{ok: true, blob: blob, epoch: peerEpoch(hdr), degraded: hdr.Get(partialHeader) == "true"}
		}(i, p)
	}
	wg.Wait()

	// Decided before folding, so a round that will be refused or keep
	// the complete fold does no fold work. The decision holds until the
	// install below: only this round can install, and a fold's age only
	// grows. A blob that fails to decode while folding fails its peer,
	// and the round is decided again.
	fo, err := g.decide(res, errs)
	if err != nil {
		return err
	}
	merged, failed, err := g.fold(res, errs)
	if err != nil {
		return err
	}
	if failed > 0 {
		if fo, err = g.decide(res, errs); err != nil {
			return err
		}
	}
	epochs := make([]int64, len(res))
	for i, r := range res {
		epochs[i] = r.epoch
	}
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	g.merged, g.mergedFo, g.mergedEpochs = merged, fo, epochs
	g.fedCacheMisses.Add(1)
	g.markFresh(startGen)
	g.exportGen.Bump()
	return nil
}

// decide tallies a round's peers and refuses the round when no peer
// contributed, when it is partial under PartialFail, or when it is
// partial and the installed complete fold stays (errKeptComplete).
func (g *Gateway) decide(res []scatterResult, errs []error) (fanout, error) {
	fo := fanout{replicas: g.cfg.Replicas}
	for i, r := range res {
		if !r.ok {
			fo.failed = append(fo.failed, g.peers[i].url)
			continue
		}
		fo.ok++
		if r.degraded {
			fo.degraded = append(fo.degraded, g.peers[i].url)
		}
	}
	if fo.ok == 0 {
		return fo, fmt.Errorf("%w: all %d peers failed (first: %v)", errNoPeers, len(g.peers), errs[firstError(errs)])
	}
	if fo.partial() && g.cfg.Partial == PartialFail {
		return fo, fmt.Errorf("%w under policy %q: %d unreachable, %d upstream-partial of %d peers: %s",
			errPartialRefused, PartialFail, len(fo.failed), len(fo.degraded), len(g.peers),
			strings.Join(append(append([]string(nil), fo.failed...), fo.degraded...), ", "))
	}
	if fo.partial() {
		g.cacheMu.Lock()
		keep := g.keepCompleteLocked()
		g.cacheMu.Unlock()
		if keep {
			return fo, errKeptComplete
		}
	}
	return fo, nil
}

// fold decodes the round's first fetched blob that decodes as the fold
// receiver (sketch.Deserialize, the deserialize stage) and folds every
// later one into it (sketch.MergeSerialized, the merge stage). A blob
// that does not decode fails its peer: its result is cleared, its error
// recorded, and it is counted in failed. A blob that decodes but does
// not merge fails the round.
func (g *Gateway) fold(res []scatterResult, errs []error) (merged sketch.Mergeable, failed int, err error) {
	fail := func(i int, err error) {
		res[i] = scatterResult{epoch: -1}
		errs[i] = fmt.Errorf("cluster: peer %s sketch: %w", g.peers[i].url, err)
		failed++
	}
	for i := range res {
		if !res[i].ok {
			continue
		}
		if merged == nil {
			tDeser := time.Now()
			sk, err := sketch.Deserialize(res[i].blob)
			telemetry.Observe(g.tel.deserialize, nil, "", time.Since(tDeser))
			if err != nil {
				fail(i, err)
				continue
			}
			g.peerDeserializes.Add(1)
			m, ok := sk.(sketch.Mergeable)
			if !ok {
				return nil, 0, fmt.Errorf("cluster: %T is not mergeable; federation needs sketch.Mergeable", sk)
			}
			merged = m
			continue
		}
		tMerge := time.Now()
		err := sketch.MergeSerialized(merged, res[i].blob)
		telemetry.Observe(g.tel.merge, nil, "", time.Since(tMerge))
		if errors.Is(err, sketch.ErrCorrupt) {
			fail(i, err)
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: merging peer %s: %w", g.peers[i].url, err)
		}
		g.peerDeserializes.Add(1)
		g.sketchMerges.Add(1)
	}
	return merged, failed, nil
}

// markFresh stamps an installed fold: the cache now reflects every
// invalidation up to startGen, and its age clock restarts.
func (g *Gateway) markFresh(startGen int64) {
	g.lastRoundGen.Store(startGen)
	g.lastFresh.Store(time.Now().UnixNano())
}

// peerEpoch parses the peer's X-Sketch-Epoch response header (a
// stacked gateway sends its export generation); -1 when absent or
// malformed.
func peerEpoch(hdr http.Header) int64 {
	v, err := strconv.ParseInt(hdr.Get(server.EpochHeader), 10, 64)
	if err != nil || v < 0 {
		return -1
	}
	return v
}

// servedPartial counts a degraded answer that actually went out the door
// (the handlers call it after their last failure point, so refused or
// errored queries never inflate the partial_queries stat).
//
//sketch:hotpath
func (g *Gateway) servedPartial(fo fanout) {
	if fo.partial() {
		g.partialQueries.Add(1)
	}
}

// firstError returns the index of the first non-nil error (len(errs) if
// none — callers only use it when at least one exists).
func firstError(errs []error) int {
	for i, err := range errs {
		if err != nil {
			return i
		}
	}
	return len(errs)
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span, ctx := g.beginTrace(w, r)
	k, err := server.ParseK(r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		g.finishRequest(span, g.tel.reqQuery, telemetry.SlowEntry{Path: "/query", Status: http.StatusBadRequest}, t0)
		return
	}
	g.queries.Add(1)
	if status := g.ensureFresh(w, ctx, span); status != 0 {
		g.finishRequest(span, g.tel.reqQuery, telemetry.SlowEntry{Path: "/query", Status: status}, t0)
		return
	}
	ta := time.Now()
	g.cacheMu.Lock()
	g.setPushHeadersLocked(w)
	fo := g.mergedFo
	resp := QueryResponse{
		Partial:       fo.partial(),
		Replicas:      g.cfg.Replicas,
		PeersTotal:    len(g.peers),
		PeersOK:       fo.ok,
		FailedPeers:   fo.failed,
		DegradedPeers: fo.degraded,
	}
	slowE := telemetry.SlowEntry{Path: "/query", Status: http.StatusOK, Partial: fo.partial()}
	g.slowContextLocked(span, &slowE)
	// The answer is built by the same code as on a single daemon, so the
	// two tiers agree on response shape, status codes and fresh samples.
	resp.QueryResponse, err = server.AnswerQuery(g.merged, k)
	if err != nil {
		g.cacheMu.Unlock()
		telemetry.Observe(g.tel.answer, span, "answer", time.Since(ta))
		server.WriteError(w, server.QueryErrorStatus(err), err)
		slowE.Status = server.QueryErrorStatus(err)
		g.finishRequest(span, g.tel.reqQuery, slowE, t0)
		return
	}
	g.servedPartial(fo)
	g.cacheMu.Unlock()
	telemetry.Observe(g.tel.answer, span, "answer", time.Since(ta))
	server.WriteJSON(w, http.StatusOK, resp)
	g.revalidateServed()
	g.finishRequest(span, g.tel.reqQuery, slowE, t0)
}

// handleSketch re-exports the federated merged sketch in the versioned
// envelope, so gateways stack: a higher-tier gateway can treat this one
// as a single peer. X-Sketch-Epoch carries the export generation of the
// installed fold, which GET /watch serves too. A partial fold is marked
// with X-Sketch-Partial: true (PartialDegrade) rather than served
// silently.
func (g *Gateway) handleSketch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span, ctx := g.beginTrace(w, r)
	g.queries.Add(1)
	if status := g.ensureFresh(w, ctx, span); status != 0 {
		g.finishRequest(span, g.tel.reqSketch, telemetry.SlowEntry{Path: "/sketch", Status: status}, t0)
		return
	}
	te := time.Now()
	g.cacheMu.Lock()
	g.setPushHeadersLocked(w)
	fo := g.mergedFo
	// cacheMu is held, so the generation is the installed fold's.
	w.Header().Set(server.EpochHeader, strconv.FormatInt(g.exportGen.Load(), 10))
	if fo.partial() {
		w.Header().Set(partialHeader, "true")
	}
	slowE := telemetry.SlowEntry{Path: "/sketch", Status: http.StatusOK, Partial: fo.partial()}
	g.slowContextLocked(span, &slowE)
	blob, err := g.merged.Serialize()
	if err != nil {
		g.cacheMu.Unlock()
		telemetry.Observe(g.tel.export, span, "export", time.Since(te))
		status := http.StatusInternalServerError
		if errors.Is(err, sketch.ErrNotSerializable) {
			status = http.StatusNotImplemented
		}
		server.WriteError(w, status, err)
		slowE.Status = status
		g.finishRequest(span, g.tel.reqSketch, slowE, t0)
		return
	}
	g.servedPartial(fo)
	g.cacheMu.Unlock()
	telemetry.Observe(g.tel.export, span, "export", time.Since(te))
	server.WriteSketch(w, blob)
	g.revalidateServed()
	g.finishRequest(span, g.tel.reqSketch, slowE, t0)
}

// handleWatch serves GET /watch over the export generation, so a
// higher-tier gateway watches this one exactly like a daemon: the
// long-poll answers once an installed fold has moved the generation,
// and at once for a ?epoch= ahead of the generation (a restarted gateway
// counts from 0 again).
func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	// Close ends a parked long-poll, so a watching higher tier cannot hold
	// up this gateway's graceful shutdown.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(g.stopCtx, cancel)()
	wr, err := server.WaitWatch(r.WithContext(ctx), g.cfg.WatchTimeout, g.exportGen.Wait)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set(server.EpochHeader, strconv.FormatInt(wr.Epoch, 10))
	server.WriteJSON(w, http.StatusOK, wr)
}

// handleIngest routes a batch across the fleet: each point is assigned to
// the owners of its routing cell — exactly one peer without replication,
// all R owners with Replicas > 1 — and the per-peer sub-batches are
// forwarded in parallel in the packed-binary format. Without replication
// any peer failure fails the whole request with 502; with replication the
// request succeeds as long as every point reached at least one live owner
// (fewer than Replicas distinct peers failed), and a failed replica is
// marked for read repair instead. Either way, sub-batches already
// delivered stay delivered, and retrying the full batch is safe:
// re-ingested points are near-duplicates of themselves and collapse in
// the sketches.
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	span, ctx := g.beginTrace(w, r)
	g.ingestRequests.Add(1)
	body := http.MaxBytesReader(w, r.Body, server.MaxBodyBytes)
	tp := time.Now()
	pts, err := pointio.ReadBatch(body, r.Header.Get("Content-Type"), g.cfg.Dim)
	telemetry.Observe(g.tel.parse, span, "parse", time.Since(tp))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		server.WriteError(w, status, err)
		g.finishRequest(span, g.tel.reqIngest, telemetry.SlowEntry{Path: "/ingest", Status: status}, t0)
		return
	}
	tr := time.Now()
	buckets := make([][]geom.Point, len(g.peers))
	var ob [engine.MaxReplicas]int
	copies := 0
	for _, p := range pts {
		for _, i := range g.placement.Owners(g.cfg.Router.Route(p), ob[:0]) {
			buckets[i] = append(buckets[i], p)
			copies++
		}
	}
	g.replicaFanout.Add(int64(copies - len(pts)))
	telemetry.Observe(g.tel.route, span, "route", time.Since(tr))
	// Windowed peers stamp ingest batches: forward the client's explicit
	// stamp so every routed sub-batch lands with the same timestamp it
	// would have carried against a single daemon (without it, each peer
	// stamps with its own clock — fine for wall-clock windows, wrong for
	// logical stamps).
	var stampHdr http.Header
	if v := r.Header.Get(server.StampHeader); v != "" {
		stampHdr = http.Header{server.StampHeader: []string{v}}
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed []string // one entry per failed peer: each stops at its first failure
		missed []*peer  // the failed peers, marked for read repair after wg.Wait
	)
	// Under mu: the forward goroutines report their failures concurrently.
	fail := func(p *peer, msg string) {
		mu.Lock()
		failed = append(failed, msg)
		missed = append(missed, p)
		mu.Unlock()
	}
	tf := time.Now()
	now := tf
	for i, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		p := g.peers[i]
		if !p.admit(now, g.cfg.DownCooldown) {
			fail(p, p.url+": down (circuit open)")
			continue
		}
		wg.Add(1)
		go func(p *peer, bucket []geom.Point) {
			defer wg.Done()
			// Forward in bounded chunks: a terse text body near the
			// gateway's cap can expand several-fold when re-encoded as
			// packed binary, so shipping a bucket whole could exceed the
			// peer's server.MaxBodyBytes deterministically. Chunks stay
			// well under it.
			maxPts := max(forwardChunkBytes/(8*g.cfg.Dim), 1)
			for len(bucket) > 0 {
				n := min(len(bucket), maxPts)
				chunk := bucket[:n]
				bucket = bucket[n:]
				body := pointio.AppendBinaryBatch(getForwardBuf(), chunk)
				blob, _, err := g.do(ctx, p, http.MethodPost, "/ingest",
					pointio.BinaryContentType, body, stampHdr)
				if err != nil {
					// The buffer is NOT recycled on failure: a timed-out
					// attempt's transport goroutine may still be reading it,
					// and recycling would hand those bytes to another request
					// mid-write. Dropped buffers are reclaimed by GC.
					fail(p, err.Error())
					return
				}
				putForwardBuf(body)
				var ir server.IngestResponse
				if err := json.Unmarshal(blob, &ir); err != nil || ir.Ingested != n {
					fail(p, fmt.Sprintf("%s: peer accepted %d of %d points (%v)",
						p.url, ir.Ingested, n, err))
					return
				}
				g.pointsRouted.Add(int64(n))
			}
		}(p, bucket)
	}
	wg.Wait()
	telemetry.Observe(g.tel.forward, span, "forward", time.Since(tf))
	// Marked only now that every other owner has answered, so a repair
	// that starts after the mark folds their copies of what was missed.
	for _, p := range missed {
		p.stale.Store(true)
	}
	// Every point went to Replicas distinct owners: as long as fewer than
	// Replicas peers failed, each point reached at least one live owner —
	// the ingest is durable, read repair brings the missed copies to the
	// failed replicas, and the request succeeds. At Replicas = 1 any
	// failure loses that peer's slice of the batch, so the whole request
	// fails.
	if len(failed) >= g.cfg.Replicas {
		server.WriteError(w, http.StatusBadGateway,
			fmt.Errorf("cluster: ingest failed on %d peer(s) — retrying the whole batch is safe (duplicates collapse): %s",
				len(failed), strings.Join(failed, "; ")))
		g.finishRequest(span, g.tel.reqIngest, telemetry.SlowEntry{Path: "/ingest", Status: http.StatusBadGateway}, t0)
		return
	}
	// TotalPoints is the gateway's cumulative routed count, not a sum of
	// the peers' per-batch totals: summing only the peers this batch
	// touched would make the "cumulative" number jump around with
	// routing. It is monotone per gateway, like a single daemon's counter
	// is monotone per daemon (peers ingesting directly are not included —
	// query a peer's /stats for its own view).
	server.WriteJSON(w, http.StatusOK, server.IngestResponse{
		Ingested:    len(pts),
		TotalPoints: g.pointsRouted.Load(),
	})
	g.finishRequest(span, g.tel.reqIngest, telemetry.SlowEntry{Path: "/ingest", Status: http.StatusOK}, t0)
}

// handleStats renders the declared scalars plus the fields the
// declaration does not hold: build identity, start time, the per-peer
// table, the policy, and the maximum staleness in milliseconds (its
// family is in seconds). The body decodes into StatsResponse.
func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	peers := make([]PeerStatus, len(g.peers))
	for i, p := range g.peers {
		peers[i] = PeerStatus{
			URL:                 p.url,
			Up:                  p.up(),
			Requests:            p.requests.Load(),
			Failures:            p.failures.Load(),
			ConsecutiveFailures: p.consec.Load(),
			LastError:           p.lastError(),
			WatchOK:             p.watchOK.Load(),
		}
	}
	resp := g.stats.JSON()
	resp["version"], resp["commit"] = telemetry.BuildInfo()
	resp["started_at"] = g.start.UTC().Format(time.RFC3339)
	resp["peers"] = peers
	resp["partial_policy"] = g.cfg.Partial
	resp["max_staleness_ms"] = float64(g.maxStalenessNs.Load()) / 1e6
	server.WriteJSON(w, http.StatusOK, resp)
}

// peersUp counts the peers whose circuit breaker is closed.
func (g *Gateway) peersUp() int {
	up := 0
	for _, p := range g.peers {
		if p.up() {
			up++
		}
	}
	return up
}

// quorumOK reports whether every routing cell has at least one live
// owner: each cell's Replicas owners are distinct peers, so as long as
// fewer than Replicas peers are down no cell can have lost all of them.
func (g *Gateway) quorumOK() bool {
	up := g.peersUp()
	return up > 0 && len(g.peers)-up < g.cfg.Replicas
}

// handleHealthz reflects fleet health, placement-aware: 200 "ok" with
// every breaker closed, and — with replication — still 200 "ok" at
// reduced redundancy while fewer than Replicas peers are down, because
// every routing cell provably keeps a live owner and queries stay
// complete. "degraded" means quorum is lost: at least one cell may have
// no live owner (with Replicas 1 that is any down peer, reproducing the
// old behavior). 503 with no live peers at all (the gateway cannot
// answer anything). A tripped peer counts as down until a successful
// probe closes its breaker — elapsing cooldown alone never reports
// health back. Health is passive: it reflects what request traffic has
// observed, so peers that have never been talked to are presumed up (an
// idle gateway with unreachable peers reports ok until requests prove
// otherwise) — probe the peers' own /healthz for active cold-start
// detection.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	up := g.peersUp()
	down := len(g.peers) - up
	w.Header().Set("Content-Type", "text/plain")
	version, commit := telemetry.BuildInfo()
	switch {
	case up == 0:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no live peers")
	case down == 0:
		fmt.Fprintln(w, "ok")
	case down < g.cfg.Replicas:
		fmt.Fprintf(w, "ok (reduced redundancy: %d/%d peers down, every cell keeps a live owner at replicas=%d)\n",
			down, len(g.peers), g.cfg.Replicas)
	default:
		fmt.Fprintf(w, "degraded (%d/%d peers up)\n", up, len(g.peers))
	}
	fmt.Fprintf(w, "build %s (%s)\n", version, commit)
}
