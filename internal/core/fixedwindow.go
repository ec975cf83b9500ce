package core

import (
	"cmp"
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

	index cellIndex
	// order holds the stored entries in ascending lastStamp order, the
	// oldest first; entries of one stamp keep the order they were filed
	// in. An entry is found in it by binary search on its lastStamp and a
	// scan of that stamp's run.
	order  []*entry
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
	spc, ls, src := opts.derive()
	return newFixedWindow(opts, win, r, spc, ls, rand.New(src)), nil
}

// newFixedWindow wires an instance onto shared infrastructure. Levels of a
// WindowSampler share one space and one hash function so that the nesting
// property (Fact 1b) holds across levels.
func newFixedWindow(opts Options, win window.Window, r uint64, spc Space, ls *hash.LevelSampler, rng *rand.Rand) *FixedWindow {
	return &FixedWindow{
		opts: opts,
		win:  win,
		spc:  spc,
		ls:   ls,
		rng:  rng,
		r:    r,
	}
}

// R returns the reciprocal sample rate of this instance.
func (fw *FixedWindow) R() uint64 { return fw.r }

// Size returns the number of candidate groups currently stored.
func (fw *FixedWindow) Size() int { return len(fw.order) }

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
// the clock (Algorithm 2, lines 1–3): the expired prefix of the order,
// unfiled oldest first and cut with one copy.
func (fw *FixedWindow) Expire(now int64) {
	fw.now = max(fw.now, now)
	i := 0
	for i < len(fw.order) && fw.win.Expired(fw.order[i].lastStamp, fw.now) {
		fw.unfile(fw.order[i])
		i++
	}
	if i > 0 {
		n := copy(fw.order, fw.order[i:])
		clear(fw.order[n:])
		fw.order = fw.order[:n]
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
		at := -1
		if advanced {
			at = fw.indexOf(e) // before observeDuplicate moves lastStamp
		}
		if fw.opts.RandomRepresentative {
			fw.space.sub(e.words(true, true))
			e.observeDuplicate(p, stamp, fw.rng)
			e.observeWindowPick(p, stamp, fw.rng.Uint64())
			fw.space.add(e.words(true, true))
		} else {
			e.observeDuplicate(p, stamp, nil)
		}
		if advanced {
			fw.moveForward(at)
		}
		return true
	}
	if fw.matchOnly {
		return false
	}

	// Lines 7–10: p is the first point of its group in this window; it
	// becomes the representative if the group is sampled or rejected.
	// Unlike Sampler's, a window entry's points stay views of the stream:
	// they expire with the window.
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

// byLastStamp orders entries by the stamp of their latest point, the
// expiry order.
func byLastStamp(a, b *entry) int { return cmp.Compare(a.lastStamp, b.lastStamp) }

// indexOf returns e's index in the order, or -1 if e is not in it. The
// last slot is checked first: a refreshed hot group is usually there.
func (fw *FixedWindow) indexOf(e *entry) int {
	o := fw.order
	if n := len(o); n > 0 && o[n-1] == e {
		return n - 1
	}
	i, _ := slices.BinarySearchFunc(o, e, byLastStamp)
	for ; i < len(o) && o[i].lastStamp == e.lastStamp; i++ {
		if o[i] == e {
			return i
		}
	}
	return -1
}

// stampedAfter returns the index of the first entry of o stamped later than
// stamp: an entry filed there comes after every entry stamped at or
// before it. An in-order stream files at the back, which is checked
// first.
func stampedAfter(o []*entry, stamp int64) int {
	if n := len(o); n == 0 || o[n-1].lastStamp <= stamp {
		return n
	}
	i, _ := slices.BinarySearchFunc(o, stamp, func(e *entry, s int64) int {
		if e.lastStamp <= s {
			return -1
		}
		return 1
	})
	return i
}

// moveForward restores the expiry order after the lastStamp of the entry
// at index i moved forward: it moves behind every entry stamped at or
// before it, which for an in-order stream is the back of the order.
func (fw *FixedWindow) moveForward(i int) {
	e := fw.order[i]
	j := i + 1 + stampedAfter(fw.order[i+1:], e.lastStamp)
	copy(fw.order[i:j-1], fw.order[i+1:j])
	fw.order[j-1] = e
}

// insert adds an entry behind every entry stamped at or before it,
// keeping the order sorted by lastStamp. New and promoted entries of an
// in-order stream carry the largest stamps seen by this instance, so
// they go to the back.
func (fw *FixedWindow) insert(e *entry) {
	fw.order = slices.Insert(fw.order, stampedAfter(fw.order, e.lastStamp), e)
	fw.file(e)
}

// file adds e to the cell index and the accept and space counts; the
// caller places it in the order.
func (fw *FixedWindow) file(e *entry) {
	fw.index.add(e)
	if e.accepted {
		fw.numAcc++
	}
	fw.space.add(e.words(fw.opts.RandomRepresentative, true))
}

// unfile removes e from the cell index and the accept and space counts;
// the caller removes it from the order.
func (fw *FixedWindow) unfile(e *entry) {
	fw.index.remove(e)
	if e.accepted {
		fw.numAcc--
	}
	fw.space.sub(e.words(fw.opts.RandomRepresentative, true))
}

// Reset clears all state, keeping the sample rate — the "ALG_j ← (⊥,⊥,⊥,R_j)"
// of Algorithm 3 — and the query RNG, which a WindowSampler's levels
// share: the clock and the space meter start over as NewFixedWindow
// builds them. The order and the cell index keep their capacity.
func (fw *FixedWindow) Reset() {
	fw.index.clear()
	clear(fw.order)
	fw.order = fw.order[:0]
	fw.numAcc = 0
	fw.space = spaceMeter{}
	fw.now = 0
}

// Query returns a robust ℓ0-sample of the current window: a uniformly
// random group among the sampled groups, represented by its latest point —
// or, with RandomRepresentative, by a uniformly random in-window point of
// the group (per-group window reservoir, Section 2.3).
func (fw *FixedWindow) Query() (geom.Point, error) {
	var acc []*entry
	for _, e := range fw.order {
		if e.accepted {
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
