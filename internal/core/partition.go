package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/window"
)

// cloneEntry copies an entry's sketch-owned state. Point slices and the
// adjacency list are shared (immutable once set); the window reservoir is
// copied because the clone's owner mutates it independently of the
// source.
func cloneEntry(e *entry) *entry {
	c := new(entry)
	cloneInto(c, e)
	return c
}

// cloneInto makes c a clone of e, as cloneEntry does.
func cloneInto(c, e *entry) {
	*c = entry{
		rep:       e.rep,
		cell:      e.cell,
		adj:       e.adj,
		accepted:  e.accepted,
		cellLvl:   e.cellLvl,
		adjLvl:    e.adjLvl,
		wit:       e.wit,
		stamp:     e.stamp,
		count:     e.count,
		pick:      e.pick,
		last:      e.last,
		lastStamp: e.lastStamp,
	}
	if len(e.wres) > 0 {
		c.wres = append([]windowPick(nil), e.wres...)
	}
}

// Partition splits the sampler's stored state across n fresh samplers
// built with the same options: every stored group lands on the sampler
// shard(rep) selects, keeping its classification (all partitions inherit
// the source's sample rate, and the grid and hash are seed-derived, so
// re-classification is a no-op). Merging the partitions back yields the
// original entry set — the property engine.Restore uses to load a
// checkpoint into an engine with a different shard count. The source is
// left intact. Each partition reports the source's Processed count (the
// per-point history cannot be split); shard must return values in [0, n).
func (s *Sampler) Partition(n int, shard func(p geom.Point) int) ([]*Sampler, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: Partition needs n ≥ 1, got %d", n)
	}
	parts := make([]*Sampler, n)
	for i := range parts {
		p, err := NewSampler(s.opts)
		if err != nil {
			return nil, err
		}
		p.r = s.r
		p.rehash = s.rehash
		p.n = s.n
		parts[i] = p
	}
	for _, e := range s.entries {
		i := shard(e.rep)
		if i < 0 || i >= n {
			return nil, fmt.Errorf("core: Partition route %d out of [0,%d)", i, n)
		}
		parts[i].store(cloneEntry(e))
	}
	return parts, nil
}

// Partition splits the window sampler's stored state across n fresh
// samplers built with the same options and window, routing every stored
// group by its representative and keeping it at its current level. Only
// time-based windows partition (expiry is per-point, so shard-local
// expiry composes); sequence windows return ErrWindowMerge. All
// partitions share the source's clock, so merging them back (MergeFrom)
// reproduces the original window contents.
func (ws *WindowSampler) Partition(n int, shard func(p geom.Point) int) ([]*WindowSampler, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: Partition needs n ≥ 1, got %d", n)
	}
	if ws.win.Kind != window.Time {
		return nil, fmt.Errorf("%w: cannot partition", ErrWindowMerge)
	}
	parts := make([]*WindowSampler, n)
	for i := range parts {
		p, err := NewWindowSampler(ws.opts, ws.win)
		if err != nil {
			return nil, err
		}
		p.n = ws.n
		p.now = ws.now
		parts[i] = p
	}
	if ws.latest != nil {
		i := shard(ws.latest)
		if i < 0 || i >= n {
			return nil, fmt.Errorf("core: Partition route %d out of [0,%d)", i, n)
		}
		parts[i].latest, parts[i].latestStamp = ws.latest, ws.latestStamp
	}
	for l, lv := range ws.levels {
		for _, e := range lv.order {
			i := shard(e.rep)
			if i < 0 || i >= n {
				return nil, fmt.Errorf("core: Partition route %d out of [0,%d)", i, n)
			}
			p := parts[i]
			p.levels[l].now = ws.now
			p.levels[l].insert(cloneEntry(e))
		}
	}
	for _, p := range parts {
		p.trackSpace()
	}
	return parts, nil
}
