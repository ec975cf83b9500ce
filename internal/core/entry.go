package core

import (
	"math/bits"
	"math/rand/v2"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hash"
)

// entry is the stored state for one candidate group: its representative
// point, the representative's cell and cached adjacency list, the current
// accept/reject classification, and the optional reservoir augmentation
// that tracks a uniformly random point of the group.
type entry struct {
	rep      geom.Point     // representative point of the group
	cell     grid.CellKey   // cell(rep)
	adj      []grid.CellKey // cached adj(rep): cells within α of rep
	accepted bool           // true → Sacc, false → Srej

	// cellLvl and adjLvl cache, plus one, the hash level of cell and the
	// maximum hash level over adj; zero means not computed yet. The grid
	// and hash are seed-derived, so neither ever changes. They sit in the
	// padding after accepted and share its word in words.
	cellLvl uint8
	adjLvl  uint8
	// at is the entry's place in its cell in the cellIndex that last
	// filed it (0: the cell's slot, j > 0: its overflow's element j−1),
	// so remove need not scan a crowded cell. It sits in the same padding.
	at uint32

	stamp int64 // arrival index (or timestamp) of rep

	// Reservoir augmentation (Section 2.3): count points seen in this
	// group and keep a uniform pick among them.
	count int64
	pick  geom.Point

	// Sliding-window state (Algorithm 2): the latest point of the group
	// and its stamp; the pair (rep, last) is the (u, p) ∈ A of the paper.
	last      geom.Point
	lastStamp int64

	// wres is the per-group window reservoir used when
	// RandomRepresentative is set on a windowed sampler (Section 2.3
	// suggests swapping reservoir sampling for a sliding-window sampler
	// [8]): a priority skyline over the group's in-window points. Each
	// point draws a random priority; the skyline keeps points not
	// dominated by a later higher-priority point, so the maximum-priority
	// non-expired point — a uniform sample of the group's window points —
	// is always at the front. Expected size O(log w).
	wres []windowPick
}

// hashLevel returns the hash level of cell c: the number of trailing
// zero bits of h(c). c is sampled at rate 1/R exactly when its level is
// at least log2 R (see sampledAt).
func hashLevel(ls *hash.LevelSampler, c grid.CellKey) uint8 {
	return uint8(ls.Level(uint64(c), 64))
}

// sampledAt reports whether a cell of the given hash level is sampled at
// rate 1/r, for r a power of two: h(c) mod r = 0.
func sampledAt(level uint8, r uint64) bool {
	return int(level) >= bits.TrailingZeros64(r)
}

// ownLevel returns the hash level of e's cell, caching it on first use.
func (e *entry) ownLevel(ls *hash.LevelSampler) uint8 {
	if e.cellLvl == 0 {
		e.cellLvl = hashLevel(ls, e.cell) + 1
	}
	return e.cellLvl - 1
}

// nearLevel returns the maximum hash level over e's adjacency list,
// caching it on first use: some cell of adj(rep) is sampled at rate 1/r
// exactly when sampledAt(nearLevel, r).
func (e *entry) nearLevel(ls *hash.LevelSampler) uint8 {
	if e.adjLvl == 0 {
		e.adjLvl = adjLevel(ls, e.adj, e.cell, e.ownLevel(ls)) + 1
	}
	return e.adjLvl - 1
}

// adjLevel returns the maximum hash level over adj and cell, given
// cell's level cellLvl. Adjacent lists include the point's own cell, so
// this is the maximum over adj; the cell is not hashed a second time.
func adjLevel(ls *hash.LevelSampler, adj []grid.CellKey, cell grid.CellKey, cellLvl uint8) uint8 {
	m := cellLvl
	for _, c := range adj {
		if c != cell {
			m = max(m, hashLevel(ls, c))
		}
	}
	return m
}

// classify re-classifies e at rate 1/r per Definition 2.2 and reports
// whether the group is kept: accepted when its own cell is sampled,
// rejected when only some cell of adj(rep) is, dropped otherwise.
func (e *entry) classify(ls *hash.LevelSampler, r uint64) bool {
	e.accepted = sampledAt(e.ownLevel(ls), r)
	return e.accepted || sampledAt(e.nearLevel(ls), r)
}

type windowPick struct {
	stamp int64
	prio  uint64
	p     geom.Point
}

// observeWindowPick records a group point into the window reservoir at
// its stamp position: a late point lands among the picks it is not later
// than, or nowhere if a later pick outranks it.
func (e *entry) observeWindowPick(p geom.Point, stamp int64, prio uint64) {
	i := len(e.wres)
	for i > 0 && e.wres[i-1].stamp > stamp {
		i--
	}
	if i < len(e.wres) && e.wres[i].prio >= prio {
		return
	}
	j := i
	for j > 0 && e.wres[j-1].prio <= prio {
		j--
	}
	wp := windowPick{stamp: stamp, prio: prio, p: p}
	if j < i { // wp replaces the earlier picks it outranks
		e.wres[j] = wp
		e.wres = append(e.wres[:j+1], e.wres[i:]...)
		return
	}
	e.wres = append(e.wres, windowPick{})
	copy(e.wres[i+1:], e.wres[i:])
	e.wres[i] = wp
}

// windowPickAt returns a uniform random in-window point of the group (the
// maximum-priority non-expired reservoir item), trimming expired items.
// It falls back to the group's latest point when the reservoir is empty.
func (e *entry) windowPickAt(expired func(stamp int64) bool) geom.Point {
	i := 0
	for i < len(e.wres) && expired(e.wres[i].stamp) {
		i++
	}
	e.wres = e.wres[i:]
	if len(e.wres) == 0 {
		return e.last
	}
	return e.wres[0].p
}

// words returns the number of machine words this entry occupies in the
// sketch, reproducing the paper's pSpace accounting: d words per stored
// point, one word per cell key, flags/counters/stamps one word each. The
// flag word holds accepted and both cached hash levels.
func (e *entry) words(reservoir, windowed bool) int {
	w := len(e.rep) + 1 + len(e.adj) + 1 + 1 // rep + cell + adj + flags + stamp
	if reservoir {
		w += len(e.pick) + 1 // pick + count
		for _, wp := range e.wres {
			w += len(wp.p) + 2 // point + stamp + priority
		}
	}
	if windowed {
		w += len(e.last) + 1 // last + lastStamp
	}
	return w
}

// observeDuplicate updates per-group state when a new point p of this
// group arrives: the reservoir pick (uniform over the group's points) and,
// for windowed samplers, the last-point pair, which a late point never
// moves backwards.
func (e *entry) observeDuplicate(p geom.Point, stamp int64, rng *rand.Rand, windowed bool) {
	e.count++
	if rng != nil && rng.Int64N(e.count) == 0 {
		e.pick = p
	}
	if windowed && stamp >= e.lastStamp {
		e.last = p
		e.lastStamp = stamp
	}
}

// spaceMeter tracks live sketch words and their peak, reproducing the
// paper's pSpace measurement ("peak space usage throughout the streaming
// process; measured by word").
type spaceMeter struct {
	live int
	peak int
}

func (s *spaceMeter) add(w int) {
	s.live += w
	if s.live > s.peak {
		s.peak = s.live
	}
}

func (s *spaceMeter) sub(w int) { s.live -= w }

// Live returns the current number of sketch words.
func (s *spaceMeter) Live() int { return s.live }

// Peak returns the maximum number of sketch words held at any time.
func (s *spaceMeter) Peak() int { return s.peak }
