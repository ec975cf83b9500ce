package cluster

// Hinted handoff and read repair (Replicas > 1). When a replica owner is
// down — breaker open — or a routed ingest forward to it fails, the
// sub-batches it missed are parked in a bounded per-peer queue of
// packed-binary /ingest bodies instead of failing the request (the other
// owners already have the data, so the client's write is durable). A
// single background drainer goroutine replays queued hints once the
// peer's breaker re-admits it, pacing retries by the drain cadence and
// the breaker's own cooldown, and — when it observes a peer transition
// from down to up — read-repairs it: the gateway's merged fold is
// partitioned into "cells this peer owns" / "everything else" through
// the same sketch.Partitionable machinery a resharded checkpoint restore
// uses, and the owned slice is shipped over POST /sketch, where
// engine.Absorb folds it in. Both mechanisms are additive and idempotent
// (sketch union collapses duplicates), so replays and repairs can
// overlap each other and live ingest freely.

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/internal/server"
	"repro/pkg/sketch"
)

// hint is one parked sub-batch: the packed-binary /ingest body, the
// forwarded stamp header of the original request (nil when unstamped),
// and the point count the replay must be acknowledged for.
type hint struct {
	body []byte
	hdr  http.Header
	pts  int
}

// handoffQueue is one peer's bounded FIFO of missed sub-batches. The
// head is only removed after a successful (or deterministically
// rejected) replay, so a crash of the drain loop between attempts never
// loses a hint.
type handoffQueue struct {
	mu    sync.Mutex
	hints []hint
}

// peek returns the head hint without removing it.
func (q *handoffQueue) peek() (hint, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.hints) == 0 {
		return hint{}, false
	}
	return q.hints[0], true
}

// pop removes the head hint.
func (q *handoffQueue) pop() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.hints) > 0 {
		q.hints = q.hints[1:]
	}
}

// enqueueHint parks a missed sub-batch for peer i, returning false (and
// counting a drop) when the peer's queue is already at HandoffMax. The
// body must not be recycled by the caller afterwards — the queue owns
// it until the replay lands. Never blocks: overflow drops the newest
// hint so a long outage costs bounded memory, not ingest availability.
func (g *Gateway) enqueueHint(i int, body []byte, hdr http.Header, pts int) bool {
	q := g.handoff[i]
	q.mu.Lock()
	if len(q.hints) >= g.cfg.HandoffMax {
		q.mu.Unlock()
		g.handoffDropped.Add(1)
		return false
	}
	q.hints = append(q.hints, hint{body: body, hdr: hdr, pts: pts})
	q.mu.Unlock()
	g.handoffDepth.Add(1)
	g.handoffEnqueued.Add(1)
	select {
	case g.handoffKick <- struct{}{}:
	default:
	}
	return true
}

// hintBucket packs a peer's undelivered points into forward-sized
// packed-binary bodies and queues them all (cold path: the peer is
// already down or failing, so the bodies are built fresh rather than
// borrowed from the forward pool).
func (g *Gateway) hintBucket(i int, bucket []geom.Point, hdr http.Header) {
	maxPts := max(forwardChunkBytes/(8*g.cfg.Dim), 1)
	for len(bucket) > 0 {
		n := min(len(bucket), maxPts)
		chunk := bucket[:n]
		bucket = bucket[n:]
		g.enqueueHint(i, pointio.AppendBinaryBatch(nil, chunk), hdr, n)
	}
}

// handoffDrainer is the background goroutine behind hinted handoff: on
// every tick (or enqueue kick) it tries to drain each peer's queue, and
// read-repairs any peer it observes transitioning from down to up. It
// runs for the gateway's lifetime when Replicas > 1 and stops on Close.
func (g *Gateway) handoffDrainer() {
	defer g.watcherWG.Done()
	t := time.NewTicker(g.cfg.HandoffRetry)
	defer t.Stop()
	wasUp := make([]bool, len(g.peers))
	for i := range wasUp {
		wasUp[i] = true
	}
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
		case <-g.handoffKick:
		}
		for i, p := range g.peers {
			g.drainPeer(i, p)
			// up() flips back to true only after a successful probe closed
			// the breaker (a drained hint above, a scatter fetch, a push
			// watcher reconnect) — exactly the moment the peer is known to
			// be serving again and worth repairing.
			up := p.up()
			if up && !wasUp[i] {
				g.readRepair(i, p)
			}
			wasUp[i] = up
		}
	}
}

// drainPeer replays peer i's queued hints in order until the queue is
// empty, the breaker refuses admission, or a replay fails (the head hint
// stays queued and the next tick retries — the breaker cooldown paces
// probes of a still-dead peer).
func (g *Gateway) drainPeer(i int, p *peer) {
	q := g.handoff[i]
	for {
		h, ok := q.peek()
		if !ok {
			return
		}
		if !p.admit(time.Now(), g.cfg.DownCooldown) {
			return
		}
		blob, _, err := g.do(g.stopCtx, p, http.MethodPost, "/ingest",
			pointio.BinaryContentType, h.body, h.hdr)
		if err != nil {
			return
		}
		var ir server.IngestResponse
		if jerr := json.Unmarshal(blob, &ir); jerr != nil || ir.Ingested != h.pts {
			// The peer is alive but rejected the replay — a deterministic
			// answer that will not change on retry, so dropping the hint is
			// the only option that cannot wedge the whole queue behind a
			// poison body.
			q.pop()
			g.handoffDepth.Add(-1)
			g.handoffDropped.Add(1)
			continue
		}
		q.pop()
		g.handoffDepth.Add(-1)
		g.handoffDrained.Add(1)
		g.pointsRouted.Add(int64(h.pts))
	}
}

// readRepair ships a rejoined replica the merged slice of the cell space
// it owns. The gateway re-folds first (the fold now includes the peer's
// own post-recovery state plus every other live owner's copy of what it
// missed), partitions the fold into the peer's owned cells versus the
// rest through the router — the same wire path a resharded checkpoint
// restore uses — and POSTs the owned slice to the peer's /sketch, where
// engine.Absorb folds it in. Best effort and idempotent: a failed or
// skipped repair is retried the next time the peer flaps, and daemons
// predating POST /sketch simply answer 404/405 and converge through
// hinted handoff alone.
func (g *Gateway) readRepair(i int, p *peer) {
	if err := g.refresh(g.stopCtx); err != nil {
		return
	}
	g.cacheMu.Lock()
	var slice sketch.Sketch
	if part, ok := g.merged.(sketch.Partitionable); ok {
		slices, err := part.Partition(2, func(pt geom.Point) int {
			if g.placement.Owns(g.cfg.Router.Route(pt), i) {
				return 1
			}
			return 0
		})
		if err == nil {
			slice = slices[1]
		}
	}
	g.cacheMu.Unlock()
	if slice == nil {
		return
	}
	blob, err := slice.Serialize()
	if err != nil {
		return
	}
	if _, _, err := g.do(g.stopCtx, p, http.MethodPost, "/sketch",
		pointio.BinaryContentType, blob, nil); err != nil {
		return
	}
	g.readRepairs.Add(1)
}
