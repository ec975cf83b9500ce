package cluster

// Read repair (Replicas > 1): the one path that brings a replica that
// missed writes back in line. A peer is marked when a routed ingest
// forward of a sub-batch it owns fails, is skipped by its open breaker,
// or is under-acknowledged, and when its breaker opens (which covers a
// restart that lost state). A background repairer visits the marked
// peers whose breaker is closed every repairTick: it re-folds, partitions
// the gateway's merged fold into "cells this peer owns" / "everything
// else" through the same sketch.Partitionable machinery a resharded
// checkpoint restore uses, and ships the owned slice over POST /sketch,
// where engine.Absorb folds it in. Sketch union is idempotent, so the
// slice may overlap what the peer holds and repairs may overlap live
// ingest freely. Marks live in gateway memory only.

import (
	"net/http"
	"time"

	"repro/internal/geom"
	"repro/internal/pointio"
	"repro/pkg/sketch"
)

// repairTick is the repairer's cadence: how often marked peers with a
// closed breaker are repaired.
const repairTick = 250 * time.Millisecond

// repairer is the background goroutine behind read repair. It runs for
// the gateway's lifetime when Replicas > 1 and stops on Close. A mark is
// cleared before its repair starts, so one set while the repair runs
// gets a repair of its own on a later tick. A failed repair is marked
// again only when the failure may be transient (the refresh failed, or
// the POST met a transport error or a 502–504): a peer that refuses the
// slice deterministically is not re-folded on every tick.
func (g *Gateway) repairer() {
	defer g.watcherWG.Done()
	t := time.NewTicker(repairTick)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
		}
		for i, p := range g.peers {
			if p.up() && p.stale.CompareAndSwap(true, false) && g.readRepair(i, p) {
				p.stale.Store(true)
			}
		}
	}
}

// readRepair ships peer i the merged slice of the cell space it owns. It
// folds from a round that starts after the call, so the fold holds every
// copy the other owners acknowledged before the peer was marked: a round
// already in flight may have fetched before that and is waited out
// first. The fold is partitioned through the router into the peer's
// owned cells versus the rest, and the owned slice is POSTed to the
// peer's /sketch. It reports whether the repair failed in a way worth
// retrying.
func (g *Gateway) readRepair(i int, p *peer) (again bool) {
	g.flightMu.Lock()
	f := g.inflight
	g.flightMu.Unlock()
	if f != nil {
		select {
		case <-f.done:
		case <-g.stop:
			return false
		}
	}
	if err := g.refresh(g.stopCtx); err != nil {
		return true
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
		return false
	}
	blob, err := slice.Serialize()
	if err != nil {
		return false
	}
	if _, _, err := g.do(g.stopCtx, p, http.MethodPost, "/sketch",
		pointio.BinaryContentType, blob, nil); err != nil {
		return !deterministic(err)
	}
	g.readRepairs.Add(1)
	return false
}
