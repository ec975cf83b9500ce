package core

import (
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
)

// ProcessBatch feeds a batch of stream points in order. It is equivalent
// to calling Process for each point, but one virtual call per batch plus
// the lastHit duplicate cache make batched ingestion markedly cheaper on
// streams with duplicate locality; the sharded engine feeds samplers
// exclusively through this path.
func (s *Sampler) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		s.Process(p)
	}
}

// SharedAdj holds the adjacency lists of one batch for the copies of a
// stack, which search one grid (Options.Copy). The first copy that needs
// adj(p) searches it, and every later copy gets the same list. So a batch
// costs at most one search per point, and none for a point that every
// copy absorbs on its duplicate fast path. The zero value is ready to
// use; Reset it before each batch. Its buffers grow to the largest batch
// and are reused, so a warm batch allocates nothing.
type SharedAdj struct {
	// opts and spc are those of the first sampler that used the buffer;
	// every later one must share its grid.
	opts Options
	spc  Space
	keys []grid.CellKey // the lists searched so far, back to back
	span []adjSpan      // per batch point: its list's place in keys
}

// adjSpan is one point's list in SharedAdj.keys. hi is 0 until the point
// is searched: an adjacency list is never empty.
type adjSpan struct{ lo, hi int }

// Reset starts a batch of n points: the next ProcessShared calls must
// pass a batch of length n, and the same batch to every copy.
func (a *SharedAdj) Reset(n int) {
	a.keys = a.keys[:0]
	a.span = slices.Grow(a.span[:0], n)[:n]
	clear(a.span)
}

// bind admits a sampler with options opts and space spc: the first one
// binds the buffer to its grid, and a later one off that grid is a caller
// bug that would silently corrupt its sketch.
func (a *SharedAdj) bind(opts Options, spc Space) {
	if a.spc == nil {
		if !opts.gridShared {
			panic("core: SharedAdj serves the copies of a stack (Options.Copy)")
		}
		a.opts, a.spc = opts, spc
		return
	}
	if !a.opts.SharesGrid(opts) {
		panic("core: SharedAdj used by samplers on different grids")
	}
}

// of returns adj(p) for point i of the batch, searching it on first use.
// The list is valid until the next search into the buffer.
func (a *SharedAdj) of(i int, p geom.Point) []grid.CellKey {
	sp := &a.span[i]
	if sp.hi == 0 {
		sp.lo = len(a.keys)
		a.keys = a.spc.Adjacent(a.keys, p)
		sp.hi = len(a.keys)
	}
	return a.keys[sp.lo:sp.hi:sp.hi]
}

// ProcessShared feeds a batch like ProcessBatch, taking each point's
// adjacency list from adj, which the sampler's stack shares: it searches
// a point only when no copy before this one has. adj must have been
// Reset for len(ps) points, and every copy of the stack must be fed the
// same batch; it panics if the sampler is not on adj's grid.
func (s *Sampler) ProcessShared(ps []geom.Point, adj *SharedAdj) {
	adj.bind(s.opts, s.spc)
	for i, p := range ps {
		if !s.matchLast(p) {
			s.observe(p, adj.of(i, p))
		}
	}
}

// ProcessShared feeds a batch like ProcessStampedBatch — or, with stamps
// nil, like ProcessBatch — taking each in-window point's adjacency list
// from adj, on the terms of Sampler.ProcessShared.
func (ws *WindowSampler) ProcessShared(ps []geom.Point, stamps []int64, adj *SharedAdj) {
	if stamps != nil && len(ps) != len(stamps) {
		panic("core: ProcessShared: len(ps) != len(stamps)")
	}
	adj.bind(ws.opts, ws.spc)
	for i, p := range ps {
		stamp := ws.nextStamp()
		if stamps != nil {
			stamp = stamps[i]
		}
		if ws.advance(p, stamp) {
			ws.observe(p, stamp, adj.of(i, p))
		}
	}
}

// ProcessBatch feeds a batch of points to the sliding-window sampler with
// implicit stamps: arrival indices for sequence windows, the latest known
// timestamp for time windows (see Process).
func (ws *WindowSampler) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		ws.ProcessAt(p, ws.nextStamp())
	}
}

// ProcessStampedBatch feeds a batch of explicitly stamped points to the
// sliding-window sampler: stamps[i] is the timestamp of ps[i], which may
// be late (see ProcessAt), and len(stamps) must equal len(ps). This is
// the batched fast path the sharded engine uses for time-based windows.
func (ws *WindowSampler) ProcessStampedBatch(ps []geom.Point, stamps []int64) {
	if len(ps) != len(stamps) {
		panic("core: ProcessStampedBatch: len(ps) != len(stamps)")
	}
	for i, p := range ps {
		ws.ProcessAt(p, stamps[i])
	}
}
