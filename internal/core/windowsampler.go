package core

import (
	"math/bits"
	"math/rand/v2"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hash"
	"repro/internal/window"
)

// WindowSampler is Algorithms 3–5: the space-efficient robust ℓ0-sampler
// for sliding windows. It maintains L+1 = ⌊log2 w⌋+1 instances of
// Algorithm 2 with sample rates 1, 1/2, ..., 1/2^L over a dynamic partition
// of the window into subwindows (older subwindows live at higher levels,
// i.e. lower sample rates). All levels share one grid and one hash function
// so that the sampled-cell sets are nested across rates (Fact 1b).
//
// For each arriving point, the point is offered to levels from L down to 0:
// if some level already tracks the point's group, that entry is refreshed;
// otherwise the group registers fresh at level 0 (R=1, always accepted).
// When a level's accept set exceeds the κ0·K·log m threshold, Split
// promotes the prefix of the level up to the last next-rate-sampled
// accepted point to level ℓ+1, re-classifying each promoted entry at the
// doubled rate (accept / reject / drop per Definition 2.2), and Merge
// unions it into the target level; the cascade can propagate upward
// (Algorithms 4 and 5).
//
// Fidelity notes — this follows the paper's analysis rather than a literal
// transcription of its pseudocode, which is inconsistent in three places:
//
//  1. Read literally, Algorithm 3 feeds every point through full
//     Algorithm 2 instances, letting a fresh group register directly at
//     the highest level where any cell of adj(p) is sampled. Under that
//     reading an accepted entry at level ℓ always has its own cell's hash
//     level exactly ℓ, so Split's promotion point t — the newest accepted
//     entry sampled at rate R_{ℓ+1} — never exists and the cascade
//     deadlocks (levels can never shed weight). The structure the analysis
//     describes (Facts 2–4) — implemented here — has fresh groups enter at
//     level 0 and higher levels populated only by promotion, so each
//     accept set is a genuine 1/R_ℓ-rate subsample of the groups whose
//     promotion history reached that level.
//
//  2. Algorithm 3 resets every level below ℓ when a point lands at level
//     ℓ. That wipe silently discards groups that are still alive in the
//     window but not yet promoted, which both breaks the uniformity
//     accounting and biases the Section 5 F0 estimator downward (we
//     measured a 2–4× undercount at large group counts). Dropping the
//     wipe restores the clean invariant: every group is tracked at exactly
//     one level, a group at level ℓ is accepted there iff its cell is
//     sampled at rate 1/R_ℓ (probability 2^{-ℓ}), and query thinning by
//     R_ℓ/R_c makes every group's sampling probability exactly 2^{-c}.
//     Space stays O(log w · log m): each level is still capped by the
//     threshold, with rejected entries O(1)× the accepted ones.
//
//  3. The query in Algorithm 3 draws from {p : ∃(·,p) ∈ A_ℓ}, which read
//     literally includes latest points of rejected groups; the proof of
//     Theorem 2.7 thins the accept sets, so we draw from A(Sacc_ℓ) only.
//
// Additionally, when every accept set is empty but the window is not (the
// ≤ 1/m-probability failure event of Lemma 2.10, e.g. a lone surviving
// group whose promoted entry is rejected), Query falls back to the latest
// in-window point instead of failing, keeping the sampler total.
//
// Queries unify the per-level sample rates by thinning level ℓ with
// probability R_ℓ/R_c (c = highest level with a non-empty accept set) and
// return a uniformly random survivor's latest point. With probability
// 1−1/m this is a uniform robust ℓ0-sample of the groups with a point in
// the window (Theorem 2.7), using O(log w · log m) words.
//
// It works for both sequence-based and time-based windows; see Process.
type WindowSampler struct {
	opts   Options
	win    window.Window
	spc    Space
	ls     *hash.LevelSampler
	src    *rand.PCG // rng's source, which Reset re-seeds
	rng    *rand.Rand
	levels []*FixedWindow // levels[ℓ] has R = 2^ℓ

	n     int64 // points processed (also the stamp for sequence windows)
	now   int64 // latest stamp seen
	space spaceMeter

	// Fallback for the Lemma 2.10 failure event: the latest point seen and
	// its stamp, returned by Query when every accept set is empty but the
	// window still holds points.
	latest      geom.Point
	latestStamp int64

	overflowErrors int // times the split cascade ran past level L (paper's "error")
	splitFailures  int // times Split found no next-rate-sampled accepted point

	// adjBuf is ProcessAt's adjacency scratch: each point's search reuses
	// it, and only an entry a level stores gets a copy.
	adjBuf []grid.CellKey
	// splitBuf is split's scratch: a level's entries sorted by
	// representative stamp, then the promoted ones, which merge files
	// and clears.
	splitBuf []*entry
}

// NewWindowSampler constructs the hierarchical sliding-window sampler.
func NewWindowSampler(opts Options, win window.Window) (*WindowSampler, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	if err := win.Validate(); err != nil {
		return nil, err
	}
	spc, ls, src := opts.derive()
	rng := rand.New(src)
	l := bits.Len64(uint64(win.W) - 1) // ⌈log2 w⌉
	levels := make([]*FixedWindow, l+1)
	for i := range levels {
		levels[i] = newFixedWindow(opts, win, uint64(1)<<i, spc, ls, rng)
		levels[i].matchOnly = i > 0 // fresh groups enter at level 0 only
	}
	return &WindowSampler{
		opts:   opts,
		win:    win,
		spc:    spc,
		ls:     ls,
		src:    src,
		rng:    rng,
		levels: levels,
	}, nil
}

// Reset restores the state NewWindowSampler builds: empty levels at
// their rates, the clock and the point count at zero, no fallback point,
// zero space and error counters, and the query RNG re-seeded, so a reset
// sampler fed a stream answers and serializes exactly as a fresh one.
// The levels keep their orders' and cell indexes' capacity.
func (ws *WindowSampler) Reset() {
	for _, lv := range ws.levels {
		lv.Reset()
	}
	ws.n, ws.now = 0, 0
	ws.space = spaceMeter{}
	ws.latest, ws.latestStamp = nil, 0
	ws.overflowErrors, ws.splitFailures = 0, 0
	ws.opts.reseed(ws.src)
}

// Options returns the effective options.
func (ws *WindowSampler) Options() Options { return ws.opts }

// Window returns the window specification.
func (ws *WindowSampler) Window() window.Window { return ws.win }

// Levels returns the number of Algorithm 2 instances (L+1).
func (ws *WindowSampler) Levels() int { return len(ws.levels) }

// AcceptThreshold returns the per-level accept-set size bound κ0·K·log m.
// The sliding-window F0 estimator needs it: the highest non-empty level c
// satisfies #groups ≈ threshold·2^c.
func (ws *WindowSampler) AcceptThreshold() int { return ws.opts.acceptThreshold() }

// Processed returns the number of points fed to the sampler.
func (ws *WindowSampler) Processed() int64 { return ws.n }

// Now returns the latest stamp the sampler has seen — the right edge of
// the current window.
func (ws *WindowSampler) Now() int64 { return ws.now }

// OverflowErrors counts split cascades that ran past the top level — the
// event Algorithm 3 reports as "error", which happens with probability at
// most 1/m² per step (Lemma 2.8).
func (ws *WindowSampler) OverflowErrors() int { return ws.overflowErrors }

// SplitFailures counts the (similarly rare to OverflowErrors) event that a
// level over threshold had no accepted point sampled at the next rate, so
// nothing could be promoted.
func (ws *WindowSampler) SplitFailures() int { return ws.splitFailures }

// SpaceWords returns the current total sketch words across levels;
// PeakSpaceWords the peak over the stream (pSpace).
func (ws *WindowSampler) SpaceWords() int {
	total := 0
	for _, lv := range ws.levels {
		total += lv.SpaceWords()
	}
	return total
}

// PeakSpaceWords returns the peak of the total across the stream.
func (ws *WindowSampler) PeakSpaceWords() int { return ws.space.Peak() }

// Process feeds the next point without an explicit stamp. For sequence
// windows the point is stamped with its arrival index; for time windows it
// is stamped with the latest timestamp seen so far ("arrives at the latest
// known time") — stamping time windows with the arrival index would
// conflate indices with timestamps when Process and ProcessAt calls are
// interleaved, mass-expiring or immortalizing points.
func (ws *WindowSampler) Process(p geom.Point) {
	ws.ProcessAt(p, ws.nextStamp())
}

// nextStamp is the implicit stamp Process assigns: the next arrival index
// for sequence windows, the current clock for time windows.
func (ws *WindowSampler) nextStamp() int64 {
	if ws.win.Kind == window.Time {
		return ws.now
	}
	return ws.n + 1
}

// ProcessAt feeds the next point with an explicit stamp for time-based
// windows. Stamps may arrive late. The clock is the latest stamp seen,
// and every level expires against it when it advances, so no level holds
// an expired group. A point already expired at the clock is dropped, and
// a late point never moves its group's latest point (or the Lemma 2.10
// fallback point) backwards. It panics on wrong-dimension or non-finite
// points, before any state changes.
func (ws *WindowSampler) ProcessAt(p geom.Point, stamp int64) {
	if !ws.advance(p, stamp) {
		return
	}
	ws.adjBuf = ws.spc.Adjacent(ws.adjBuf[:0], p)
	ws.observe(p, stamp, ws.adjBuf)
}

// advance counts p in, moves the clock to stamp if it is later, and
// reports whether p is still in the window, so that it needs its
// adjacency list.
func (ws *WindowSampler) advance(p geom.Point, stamp int64) bool {
	validatePoint(p, ws.opts.Dim)
	ws.n++
	if stamp > ws.now {
		ws.now = stamp
		for _, lv := range ws.levels {
			lv.Expire(stamp)
		}
	}
	if ws.win.Expired(stamp, ws.now) {
		return false
	}
	if ws.latest == nil || stamp >= ws.latestStamp {
		ws.latest, ws.latestStamp = p, stamp
	}
	return true
}

// observe offers an in-window point with adjacency list adjKeys = adj(p)
// from the top level down; the first level already tracking p's group
// refreshes its entry. If none does, the group registers fresh at level
// 0 (match-only is off there and R=1 accepts every cell), after which
// the split cascade restores the size invariant. The levels share one
// grid, so one adjacency search serves them all.
func (ws *WindowSampler) observe(p geom.Point, stamp int64, adjKeys []grid.CellKey) {
	for l := len(ws.levels) - 1; l >= 0; l-- {
		if ws.levels[l].observe(p, stamp, adjKeys) {
			ws.rebalance(l)
			break
		}
	}
	ws.trackSpace()
}

func (ws *WindowSampler) trackSpace() {
	live := ws.SpaceWords()
	ws.space.live = live
	if live > ws.space.peak {
		ws.space.peak = live
	}
}

// rebalance restores |Sacc_j| ≤ threshold from level l upward by the
// Split/Merge cascade of Algorithm 3 lines 10–18.
func (ws *WindowSampler) rebalance(l int) {
	threshold := ws.opts.acceptThreshold()
	for j := l; ws.levels[j].AcceptSize() > threshold; {
		promoted, ok := ws.split(ws.levels[j])
		if !ok {
			// No accepted point of this level is sampled at the next rate;
			// with κ0 log m accepted points this fails with probability
			// 2^{-κ0 log m}. Tolerate the over-threshold level rather than
			// looping forever.
			ws.splitFailures++
			return
		}
		if j+1 >= len(ws.levels) {
			// The paper's "error" event (Lemma 2.8: probability ≤ 1/m²):
			// drop the promoted entries and record the failure.
			clear(promoted)
			ws.overflowErrors++
			return
		}
		ws.merge(ws.levels[j+1], promoted)
		j++
	}
}

// split is Algorithm 4. Let t be the arrival stamp of the last point in
// Sacc_ℓ sampled by the next-rate hash h_{R_{ℓ+1}}. Every stored entry that
// arrived at or before t is promoted: re-classified per Definition 2.2 at
// rate 1/R_{ℓ+1} (accepted if its own cell is sampled, rejected if only an
// adjacent cell is, dropped otherwise) and removed from this level. Entries
// arriving after t stay at rate 1/R_ℓ.
//
// Note on fidelity: the paper's pseudocode filters S^rej_a by
// h_{R_{ℓ+1}}(cell(p_k)) = 0, but a rejected representative's own cell is
// never sampled (that is what makes it rejected, and sampled sets are
// nested), so a literal reading would always discard the reject set and
// lose the neighbourhood information the reject set exists to preserve. We
// follow Definition 2.2, which the surrounding text says the promotion
// maintains: rejects stay rejected exactly when a cell of adj(p) remains
// sampled at the next rate.
//
// The promoted entries are unfiled from the cell index in representative
// stamp order, the order split returns them in, and the level keeps the
// rest in one compacting pass.
func (ws *WindowSampler) split(lv *FixedWindow) ([]*entry, bool) {
	nextR := lv.r * 2
	var t int64 = -1
	for _, e := range lv.order {
		if e.accepted && sampledAt(e.ownLevel(ws.ls), nextR) && e.stamp > t {
			t = e.stamp
		}
	}
	if t < 0 {
		return nil, false
	}

	sorted := append(ws.splitBuf[:0], lv.order...)
	slices.SortFunc(sorted, byStamp)
	promoted := sorted[:0]
	for _, e := range sorted {
		if e.stamp > t {
			continue
		}
		lv.unfile(e)
		if e.classify(ws.ls, nextR) {
			promoted = append(promoted, e)
		}
	}
	clear(sorted[len(promoted):])
	ws.splitBuf = sorted[:0]

	rest := lv.order[:0]
	for _, e := range lv.order {
		if e.stamp > t {
			rest = append(rest, e)
		}
	}
	clear(lv.order[len(rest):])
	lv.order = rest
	return promoted, true
}

// merge is Algorithm 5: union the promoted entries into the target level.
// Promoted entries come from the newer subwindow, so their latest-point
// stamps mostly exceed the target level's (see the level/subwindow
// discussion in the package comment); the expiry order stays sorted
// either way. A group can only be stored at one level at a time, so key
// collisions do not occur; if a duplicate group ever appeared, the newer
// entry wins.
//
// The entries are filed into the cell index in the order given, then
// placed in the level by one stable merge of two stamp-sorted runs: the
// level, and the kept entries stably sorted by lastStamp, the level's
// entry first on a tie. That is where filing each after every entry
// stamped at or before it would put them. merge clears promoted.
func (ws *WindowSampler) merge(lv *FixedWindow, promoted []*entry) {
	kept := promoted[:0]
	for _, e := range promoted {
		if prev := lv.index.findGroup(e.rep, e.adj, ws.spc); prev != nil {
			if prev.lastStamp >= e.lastStamp {
				continue
			}
			lv.unfile(prev)
			// prev is in the level, or it was filed just now: two
			// promoted entries can be near-duplicates when a crafted blob
			// put them in one level.
			if i := lv.indexOf(prev); i >= 0 {
				lv.order = slices.Delete(lv.order, i, i+1)
			} else if i := slices.Index(kept, prev); i >= 0 {
				kept = slices.Delete(kept, i, i+1)
			}
		}
		lv.file(e)
		kept = append(kept, e)
	}
	slices.SortStableFunc(kept, byLastStamp)
	lv.order = mergeByLastStamp(lv.order, kept)
	clear(promoted)
}

// mergeByLastStamp merges b into a, both sorted by lastStamp, in place
// from the back, and returns the merged slice; on a tie a's entry comes
// first.
func mergeByLastStamp(a, b []*entry) []*entry {
	n := len(a)
	a = slices.Grow(a, len(b))[:n+len(b)]
	i, j := n-1, len(b)-1
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i].lastStamp > b[j].lastStamp {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}

// Query returns a robust ℓ0-sample of the current window: each group whose
// latest point is in the window is returned with (near-)equal probability.
// The returned point is the group's latest point (its representative may
// already have expired). ErrEmptySketch means the window is empty or the
// low-probability failure event occurred.
func (ws *WindowSampler) Query() (geom.Point, error) {
	// Line 20: c = highest level with a non-empty accept set.
	c := -1
	for l := len(ws.levels) - 1; l >= 0; l-- {
		if ws.levels[l].AcceptSize() > 0 {
			c = l
			break
		}
	}
	if c < 0 {
		// Lemma 2.10 failure fallback: no accepted group anywhere. If the
		// window still holds at least the latest point, return it rather
		// than failing; this path has probability ≤ 1/m per query.
		if ws.latest != nil && !ws.win.Expired(ws.latestStamp, ws.now) {
			return ws.latest, nil
		}
		return nil, ErrEmptySketch
	}
	// Lines 21–22: thin level ℓ to the common rate 1/R_c by keeping each
	// accepted group's latest point with probability R_ℓ/R_c = 2^{ℓ-c}.
	//
	// Note on fidelity: the pseudocode writes the candidate pool as
	// {p : ∃(·,p) ∈ A_ℓ}, which read literally would include latest points
	// of rejected groups; the correctness argument (Theorem 2.7, items 2–3)
	// thins the *accept* sets, and including rejects would skew the sample
	// toward dense neighbourhoods. We thin A(Sacc_ℓ).
	var pool []geom.Point
	for l := 0; l <= c; l++ {
		shift := uint(c - l)
		for _, e := range ws.levels[l].order {
			if !e.accepted {
				continue
			}
			if shift == 0 || ws.rng.Uint64()&((1<<shift)-1) == 0 {
				pool = append(pool, ws.levels[l].groupPointAt(e, ws.now))
			}
		}
	}
	if len(pool) == 0 {
		// Cannot happen: level c contributes all its accepted entries.
		return nil, ErrEmptySketch
	}
	return pool[ws.rng.IntN(len(pool))], nil
}

// AcceptSizes returns |Sacc_ℓ| for each level, bottom to top (diagnostics
// and the sliding-window F0 estimator).
func (ws *WindowSampler) AcceptSizes() []int {
	out := make([]int, len(ws.levels))
	for i, lv := range ws.levels {
		out[i] = lv.AcceptSize()
	}
	return out
}

// MaxNonEmptyLevel returns the highest level with a non-empty accept set,
// or -1 when all levels are empty. The sliding-window F0 estimator uses
// this as its FM-style observable.
func (ws *WindowSampler) MaxNonEmptyLevel() int {
	for l := len(ws.levels) - 1; l >= 0; l-- {
		if ws.levels[l].AcceptSize() > 0 {
			return l
		}
	}
	return -1
}
