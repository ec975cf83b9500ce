package core

import (
	"container/list"
	"math/rand/v2"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hash"
	"repro/internal/window"
)

// FixedWindow is Algorithm 2: a sliding-window robust ℓ0-sampler with a
// fixed cell sample rate 1/R. Besides the accept and reject sets it
// maintains, for every candidate group, the pair (u, p) of the group's
// representative u and latest point p — the paper's key-value store A. The
// representative of a group in a window is the latest point u of the group
// such that the window ending right at u contains no earlier point of the
// group (Observation 1); representatives are stream-determined and
// independent of the hash function.
//
// Each group's entry expires when the group's latest point leaves the
// window. Space is O(#candidate groups in window / 1) with no sub-linear
// guarantee — the paper uses FixedWindow only as the per-level building
// block of WindowSampler, which caps each level at O(log m) entries. A
// standalone FixedWindow is still useful for small windows and for testing.
type FixedWindow struct {
	opts Options
	win  window.Window
	spc  Space
	ls   *hash.LevelSampler
	rng  *rand.Rand
	r    uint64

	index  cellIndex
	order  *list.List // *entry in ascending lastStamp order (front = oldest)
	elem   map[*entry]*list.Element
	numAcc int
	space  spaceMeter
	now    int64

	// matchOnly disables fresh-group registration: arriving points only
	// update groups already stored. WindowSampler sets this on every level
	// above 0 — higher levels are populated exclusively by promotion (see
	// the fidelity note on WindowSampler).
	matchOnly bool

	// adjBuf is Process's adjacency scratch (a WindowSampler searches
	// into its own and hands the result to observe).
	adjBuf []grid.CellKey
}

// NewFixedWindow constructs a standalone Algorithm 2 instance with sample
// rate 1/r (r must be a power of two ≥ 1).
func NewFixedWindow(opts Options, win window.Window, r uint64) (*FixedWindow, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if err := win.Validate(); err != nil {
		return nil, err
	}
	spc, ls, rng := opts.derive()
	return newFixedWindow(opts, win, r, spc, ls, rng), nil
}

// newFixedWindow wires an instance onto shared infrastructure. Levels of a
// WindowSampler share one space and one hash function so that the nesting
// property (Fact 1b) holds across levels.
func newFixedWindow(opts Options, win window.Window, r uint64, spc Space, ls *hash.LevelSampler, rng *rand.Rand) *FixedWindow {
	return &FixedWindow{
		opts:  opts,
		win:   win,
		spc:   spc,
		ls:    ls,
		rng:   rng,
		r:     r,
		order: list.New(),
		elem:  make(map[*entry]*list.Element),
	}
}

// R returns the reciprocal sample rate of this instance.
func (fw *FixedWindow) R() uint64 { return fw.r }

// Size returns the number of candidate groups currently stored.
func (fw *FixedWindow) Size() int { return fw.order.Len() }

// AcceptSize returns |Sacc|.
func (fw *FixedWindow) AcceptSize() int { return fw.numAcc }

// SpaceWords reports the current sketch size in words.
func (fw *FixedWindow) SpaceWords() int { return fw.space.Live() }

// PeakSpaceWords reports the peak sketch size in words over the stream.
func (fw *FixedWindow) PeakSpaceWords() int { return fw.space.Peak() }

// Process feeds the next point with its stamp (arrival index for sequence
// windows, timestamp for time windows): it expires outdated groups and
// then observes the point. It reports whether p is now a point of some
// candidate group — the "∃(u,p) ∈ A" predicate WindowSampler uses to
// decide whether the point stuck at this level. A point already expired
// at the instance's clock (the latest stamp seen) is dropped. It panics
// on wrong-dimension or non-finite points.
func (fw *FixedWindow) Process(p geom.Point, stamp int64) bool {
	validatePoint(p, fw.opts.Dim)
	fw.Expire(stamp)
	if fw.win.Expired(stamp, fw.now) {
		return false
	}
	fw.adjBuf = fw.spc.Adjacent(fw.adjBuf[:0], p)
	return fw.observe(p, stamp, fw.adjBuf)
}

// Expire advances the clock to now, unless it is already later, and
// removes every group whose latest point has left the window ending at
// the clock (Algorithm 2, lines 1–3).
func (fw *FixedWindow) Expire(now int64) {
	fw.now = max(fw.now, now)
	for {
		front := fw.order.Front()
		if front == nil {
			return
		}
		e := front.Value.(*entry)
		if !fw.win.Expired(e.lastStamp, fw.now) {
			return
		}
		fw.drop(e)
	}
}

// observe implements lines 4–10 of Algorithm 2 for one point with
// adjacency list adjKeys = adj(p), which a stored entry copies (adjKeys
// is the caller's scratch).
func (fw *FixedWindow) observe(p geom.Point, stamp int64, adjKeys []grid.CellKey) bool {
	// Lines 5–6: a stored representative of p's group exists; p becomes the
	// group's latest point unless a later one is already stored.
	if e := fw.index.findGroup(p, adjKeys, fw.spc); e != nil {
		advanced := stamp >= e.lastStamp
		if fw.opts.RandomRepresentative {
			fw.space.sub(e.words(true, true))
			e.observeDuplicate(p, stamp, fw.rng, true)
			e.observeWindowPick(p, stamp, fw.rng.Uint64())
			fw.space.add(e.words(true, true))
		} else {
			e.observeDuplicate(p, stamp, nil, true)
		}
		if advanced {
			fw.moveForward(fw.elem[e])
		}
		return true
	}
	if fw.matchOnly {
		return false
	}

	// Lines 7–10: p is the first point of its group in this window; it
	// becomes the representative if the group is sampled or rejected.
	c := entry{
		rep:       p,
		cell:      adjKeys[0], // Adjacent lists cell(p) first
		adj:       adjKeys,
		stamp:     stamp,
		count:     1,
		pick:      p,
		last:      p,
		lastStamp: stamp,
	}
	if !c.classify(fw.ls, fw.r) {
		return false
	}
	e := new(entry)
	*e = c
	e.adj = slices.Clone(adjKeys)
	if fw.opts.RandomRepresentative {
		e.observeWindowPick(p, stamp, fw.rng.Uint64())
	}
	fw.insert(e)
	return true
}

// moveForward restores the expiry order after el's lastStamp moved
// forward: el moves behind every entry stamped at or before it, which
// for an in-order stream is the back of the list.
func (fw *FixedWindow) moveForward(el *list.Element) {
	stamp := el.Value.(*entry).lastStamp
	at := fw.order.Back()
	for at != el && at.Value.(*entry).lastStamp > stamp {
		at = at.Prev()
	}
	if at != el {
		fw.order.MoveAfter(el, at)
	}
}

// insert adds an entry, keeping the order list sorted by lastStamp. New and
// promoted entries of an in-order stream carry the largest stamps seen by
// this instance, so they go to the back; late points and out-of-order
// merges take a backward scan.
func (fw *FixedWindow) insert(e *entry) {
	var el *list.Element
	back := fw.order.Back()
	if back == nil || back.Value.(*entry).lastStamp <= e.lastStamp {
		el = fw.order.PushBack(e)
	} else {
		at := back
		for at != nil && at.Value.(*entry).lastStamp > e.lastStamp {
			at = at.Prev()
		}
		if at == nil {
			el = fw.order.PushFront(e)
		} else {
			el = fw.order.InsertAfter(e, at)
		}
	}
	fw.elem[e] = el
	fw.index.add(e)
	if e.accepted {
		fw.numAcc++
	}
	fw.space.add(e.words(fw.opts.RandomRepresentative, true))
}

// drop removes an entry from all structures.
func (fw *FixedWindow) drop(e *entry) {
	fw.order.Remove(fw.elem[e])
	delete(fw.elem, e)
	fw.index.remove(e)
	if e.accepted {
		fw.numAcc--
	}
	fw.space.sub(e.words(fw.opts.RandomRepresentative, true))
}

// Reset clears all state, keeping the sample rate — the "ALG_j ← (⊥,⊥,⊥,R_j)"
// of Algorithm 3.
func (fw *FixedWindow) Reset() {
	fw.index.clear()
	fw.order = list.New()
	fw.elem = make(map[*entry]*list.Element)
	fw.numAcc = 0
	fw.space.sub(fw.space.Live())
}

// Query returns a robust ℓ0-sample of the current window: a uniformly
// random group among the sampled groups, represented by its latest point —
// or, with RandomRepresentative, by a uniformly random in-window point of
// the group (per-group window reservoir, Section 2.3).
func (fw *FixedWindow) Query() (geom.Point, error) {
	var acc []*entry
	for el := fw.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry); e.accepted {
			acc = append(acc, e)
		}
	}
	if len(acc) == 0 {
		return nil, ErrEmptySketch
	}
	return fw.groupPointAt(acc[fw.rng.IntN(len(acc))], fw.now), nil
}

// groupPointAt renders one group as a sample point per the configured
// representative mode, expiring reservoir items against now (the
// WindowSampler passes its own clock, which can be ahead of a level that
// has not observed recent points).
func (fw *FixedWindow) groupPointAt(e *entry, now int64) geom.Point {
	if !fw.opts.RandomRepresentative {
		return e.last
	}
	fw.space.sub(e.words(true, true))
	p := e.windowPickAt(func(stamp int64) bool { return fw.win.Expired(stamp, now) })
	fw.space.add(e.words(true, true))
	return p
}

// entriesByStamp returns the stored entries sorted by representative
// arrival stamp; used by WindowSampler's Split.
func (fw *FixedWindow) entriesByStamp() []*entry {
	out := make([]*entry, 0, fw.order.Len())
	for el := fw.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry))
	}
	slices.SortFunc(out, byStamp)
	return out
}
