package cluster

// Push-based epoch propagation: the gateway's query protocol,
// serve-stale-while-revalidate. One watcher goroutine per peer long-polls
// the peer's GET /watch; an epoch change marks the federated cache dirty.
// Queries serve the last good fold immediately — the paper's
// mergeability is what makes that sound: a slightly stale merged sketch
// is still a valid sketch over a slightly earlier prefix of the stream,
// so freshness can be bounded by propagation delay (MaxStale) instead of
// query-time fan-out.
//
// Refresh pacing: the background refresher runs one singleflight scatter
// round per demand, never back to back while ingest keeps the fold
// dirty. A round starts on exactly three triggers: the leading edge (the
// first invalidation after a clean fold, so an idle cluster's first
// ingest is folding before the next query arrives), a stale serve (a
// query or export answered from a dirty fold asks for a round after
// answering), and the backstop (a fold left dirty with no query asking
// for half of MaxStale, so steady ingest never pushes a query into a
// synchronous refresh; none without a bound). Only queries read a fold,
// so folds track query demand instead of ingest rate.
//
// Invalidation protocol (no lost pushes): dirtyGen counts invalidation
// events; a scatter round reads startGen before its network phase and
// stamps lastRoundGen = startGen only on a successful install. A push
// landing during an in-flight round raises dirtyGen past the round's
// startGen, so the cache stays dirty until a stale serve or the backstop
// runs the next round — every invalidation is folded by a later round.
//
// Trees: every install bumps the gateway's export generation, which its
// own GET /watch serves, so a higher-tier gateway watches this one like
// any daemon and a bottom ingest propagates to the top by push alone.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// StalenessHeader is the response header on the gateway's /query and
// /sketch answers: the served fold's staleness in milliseconds. 0 means
// the fold is continuously validated — every watcher healthy and no
// unapplied invalidation.
const StalenessHeader = "X-Sketch-Staleness"

// EpochVectorHeader is the response header carrying the per-peer ingest
// epochs the served fold was built from (a stacked gateway's export
// generation), comma-separated in peer order; -1 marks a peer that was
// down or served no epoch.
const EpochVectorHeader = "X-Sketch-Epoch-Vector"

// watcherRetryCeiling caps the jittered reconnect backoff of a failing
// watcher (and the background refresher's retry pause).
const watcherRetryCeiling = 2 * time.Second

// markDirty records one invalidation event — a peer's epoch moved (or
// its watcher cannot rule that out). Only the leading edge wakes the
// refresher: the invalidation that turns a clean fold dirty. Later ones
// coalesce into the dirty state until a stale serve or the backstop asks
// for the next round.
//
//sketch:hotpath
func (g *Gateway) markDirty() {
	if g.dirtyGen.Add(1)-1 == g.lastRoundGen.Load() {
		g.kickRefresh()
	}
}

// kickRefresh asks the background refresher for one scatter round; a
// kick already pending absorbs it.
//
//sketch:hotpath
func (g *Gateway) kickRefresh() {
	select {
	case g.refreshKick <- struct{}{}:
	default:
	}
}

// revalidateServed is the stale-serve trigger, called after a /query or
// /sketch has answered: a fold that is still dirty gets one background
// round, so the next answer reflects the ingest this one missed.
//
//sketch:hotpath
func (g *Gateway) revalidateServed() {
	if g.dirtyFold() {
		g.kickRefresh()
	}
}

// dirtyFold reports whether some invalidation has not yet been covered
// by an installed scatter round.
//
//sketch:hotpath
func (g *Gateway) dirtyFold() bool {
	return g.dirtyGen.Load() > g.lastRoundGen.Load()
}

// watchersHealthy reports whether every peer's watcher is currently
// delivering invalidations — the condition under which a clean cache is
// known fresh up to push latency.
//
//sketch:hotpath
func (g *Gateway) watchersHealthy() bool {
	for _, p := range g.peers {
		if !p.watchOK.Load() {
			return false
		}
	}
	return true
}

// foldStaleness is the served fold's staleness bound at now: zero while
// the cache is clean and every watcher healthy (any ingest would have
// been pushed already), and the age of the last good fold otherwise —
// a conservative overestimate, since the fold was fresh until the first
// unseen ingest, not until the round that built it.
//
//sketch:hotpath
func (g *Gateway) foldStaleness(now time.Time) time.Duration {
	if !g.dirtyFold() && g.watchersHealthy() {
		return 0
	}
	lf := g.lastFresh.Load()
	if lf == 0 {
		return 0 // no fold installed yet; the cold path refreshes synchronously
	}
	return now.Sub(time.Unix(0, lf))
}

// ensureFresh is the gate in front of the answer phase of /query and
// /sketch: it decides whether the cached fold may be served as-is (the
// fast path — zero peer round trips) or the request must pay a
// synchronous scatter (no fold yet, or the staleness bound is exceeded
// while the cache is dirty or a watcher is down). It returns 0 to
// proceed, or the status of the error response it wrote. Under
// PartialDegrade a failed synchronous refresh over an existing fold
// falls back to serving stale — a stale merged sketch is still a valid
// answer, which is the whole point. Either way the handler calls
// revalidateServed once it has answered.
func (g *Gateway) ensureFresh(w http.ResponseWriter, ctx context.Context, span *telemetry.Span) int {
	age := g.foldStaleness(time.Now())
	overBound := g.cfg.MaxStale >= 0 && age > g.cfg.MaxStale
	if g.haveFold() && !overBound {
		g.staleServes.Add(1)
		g.noteStaleness(age)
		return 0
	}
	g.syncRefreshes.Add(1)
	// Only the sync-refresh path records a "refresh" stage: a stale serve
	// pays zero request-path round trips, and recording its near-zero gate
	// time would drown the histogram in noise.
	t := time.Now()
	err := g.refresh(ctx)
	telemetry.Observe(g.tel.refresh, span, "refresh", time.Since(t))
	if err == nil {
		return 0
	}
	if !g.haveFold() || g.cfg.Partial == PartialFail {
		server.WriteError(w, federateStatus(err), err)
		return federateStatus(err)
	}
	g.noteStaleness(g.foldStaleness(time.Now()))
	return 0
}

// keepCompleteLocked is the serve-stale-complete policy: with a
// staleness bound, a complete fold no older than MaxStale beats a fresh
// partial one, so a round that came back partial must not replace it.
// Past the bound the query's synchronous refresh installs the partial
// fold (PartialDegrade), and without a bound partial rounds always
// install. Callers hold cacheMu.
func (g *Gateway) keepCompleteLocked() bool {
	if g.cfg.MaxStale < 0 || g.merged == nil || g.mergedFo.partial() {
		return false
	}
	return time.Since(time.Unix(0, g.lastFresh.Load())) <= g.cfg.MaxStale
}

// haveFold reports whether a scatter round has ever installed a fold to
// serve from.
//
//sketch:hotpath
func (g *Gateway) haveFold() bool {
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	return g.merged != nil
}

// noteStaleness tracks the maximum staleness ever served (the
// max_staleness_ms stat).
//
//sketch:hotpath
func (g *Gateway) noteStaleness(age time.Duration) {
	ns := int64(age)
	for {
		cur := g.maxStalenessNs.Load()
		if ns <= cur || g.maxStalenessNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// setPushHeadersLocked stamps an answer with the served fold's
// staleness and per-peer epoch vector. Callers hold cacheMu.
func (g *Gateway) setPushHeadersLocked(w http.ResponseWriter) {
	age := g.foldStaleness(time.Now())
	w.Header().Set(StalenessHeader, strconv.FormatInt(age.Milliseconds(), 10))
	parts := make([]string, len(g.mergedEpochs))
	for i, ep := range g.mergedEpochs {
		parts[i] = strconv.FormatInt(ep, 10)
	}
	w.Header().Set(EpochVectorHeader, strings.Join(parts, ","))
}

// refresher is the background revalidation loop, keeping re-fetch and
// re-fold latency entirely off the request path. Each wake-up — a kick
// (leading edge or stale serve) or the backstop timer — runs at most one
// scatter round, and only while the fold is dirty. The backstop is armed
// whenever the refresher parks on a dirty fold, for half of MaxStale.
// A failed round, or one that kept a complete fold over a partial
// result, pauses the loop with a bounded backoff before the next
// trigger is honored — the per-peer breakers keep a dead fleet from
// being hammered.
func (g *Gateway) refresher() {
	defer g.watcherWG.Done()
	// Background rounds carry their own stable trace ID so a peer's slow
	// /sketch fetches driven by revalidation are attributable in its
	// slow-query log, distinct from any client's request trace.
	ctx := g.stopCtx
	if g.cfg.Trace {
		ctx = telemetry.WithTrace(ctx, "bg-"+telemetry.NewTraceID()[:16])
	}
	pause := 50 * time.Millisecond
	for {
		var backstop <-chan time.Time
		if g.cfg.MaxStale >= 0 && g.dirtyFold() {
			backstop = time.After(g.cfg.MaxStale / 2)
		}
		select {
		case <-g.stop:
			return
		case <-g.refreshKick:
		case <-backstop:
		}
		if !g.dirtyFold() {
			continue
		}
		g.bgRefreshes.Add(1)
		if err := g.refresh(ctx); err != nil {
			select {
			case <-g.stop:
				return
			case <-time.After(pause):
			}
			pause = min(2*pause, watcherRetryCeiling)
			continue
		}
		pause = 50 * time.Millisecond
	}
}

// watchPeer is one peer's watcher goroutine: it long-polls GET /watch
// and marks the cache dirty on every epoch change. Failures — any
// non-200 answer, 404 included — reconnect with jittered exponential
// backoff, honor the peer's circuit breaker, and charge it (a dead
// peer's breaker opens from watch failures alone). After any unhealthy
// stretch the first successful round marks the cache dirty — the peer
// may have ingested unobserved.
func (g *Gateway) watchPeer(i int, p *peer) {
	defer g.watcherWG.Done()
	rng := rand.New(rand.NewPCG(uint64(i)+1, rand.Uint64()))
	// Each watcher session carries a stable trace ID on its polls so a
	// peer's /watch traffic is attributable to the specific gateway
	// watcher driving it.
	wid := ""
	if g.cfg.Trace {
		wid = "watch" + strconv.Itoa(i) + "-" + telemetry.NewTraceID()[:16]
	}
	var (
		lastEpoch int64
		backoff   time.Duration
	)
	for {
		select {
		case <-g.stop:
			return
		default:
		}
		if backoff > 0 {
			// Jittered: half deterministic, half uniform — reconnecting
			// watchers of one fleet spread out instead of thundering.
			d := backoff/2 + time.Duration(rng.Int64N(int64(backoff/2)+1))
			select {
			case <-g.stop:
				return
			case <-time.After(d):
			}
		}
		if !p.admit(time.Now(), g.cfg.DownCooldown) {
			p.watchOK.Store(false)
			backoff = g.cfg.DownCooldown
			continue
		}
		wasHealthy := p.watchOK.Load()
		if err := g.watchOnce(p, &lastEpoch, wid); err != nil {
			if g.stopCtx.Err() != nil {
				return
			}
			p.watchOK.Store(false)
			// Watch requests bypass do(), so the breaker is charged here.
			p.recordFailure(fmt.Errorf("cluster: watch %s: %w", p.url, err),
				g.cfg.DownAfter, g.cfg.DownCooldown)
			if backoff == 0 {
				backoff = 50 * time.Millisecond
			} else {
				backoff = min(2*backoff, watcherRetryCeiling)
			}
			continue
		}
		backoff = 0
		p.watchOK.Store(true)
		if !wasHealthy {
			// The peer was unwatched for a while: whatever it ingested in
			// the gap was never pushed, so the fold must be revalidated.
			g.markDirty()
		}
	}
}

// watchOnce runs one /watch long-poll against the peer, updating
// *lastEpoch and marking the cache dirty when the peer's epoch changed.
// Any change counts, not only a larger epoch: a smaller one means the
// peer restarted behind the same URL (its epoch counts from 0 again),
// and its new state must be folded now — the peer answers at once when
// asked for an epoch it has not reached. wid, when non-empty, is the
// watcher's trace ID, propagated on the poll.
func (g *Gateway) watchOnce(p *peer, lastEpoch *int64, wid string) error {
	p.requests.Add(1)
	// The request deadline leaves the peer's long-poll room to expire on
	// its own (RequestTimeout of grace past WatchTimeout) and is bound to
	// stopCtx, so Close aborts a parked poll immediately.
	ctx, cancel := context.WithTimeout(g.stopCtx, g.cfg.WatchTimeout+g.cfg.RequestTimeout)
	defer cancel()
	u := fmt.Sprintf("%s/watch?epoch=%d&timeout=%s", p.url, *lastEpoch, g.cfg.WatchTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	if wid != "" {
		req.Header.Set(telemetry.TraceHeader, wid)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodePeerError(resp)
	}
	var wr server.WatchResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4<<10)).Decode(&wr); err != nil {
		return fmt.Errorf("decoding watch response: %w", err)
	}
	p.recordSuccess()
	if wr.Epoch != *lastEpoch {
		*lastEpoch = wr.Epoch
		g.watchPushes.Add(1)
		g.markDirty()
	}
	return nil
}
