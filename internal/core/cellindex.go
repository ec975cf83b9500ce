package core

import (
	"math/bits"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
)

// cellIndex maps cell keys to the entries whose representative lies in
// that cell. It is one flat open-addressing table with a slot per cell,
// probed linearly from a home slot that a multiplicative mix of the cell
// key picks, kept at most half full, with backward-shift deletion.
//
// Because each cell intersects at most one group for well-separated
// data (Fact 1a), a cell almost always holds one entry, and it is kept
// in the cell's slot: filing it allocates nothing while the table has
// room. With d·α grids or non-separated data a cell can hold several;
// the further ones go to more, a slice per shared cell, and each entry
// notes its place in its cell (entry.at), so filing and removal stay
// O(1), amortized, however many entries share a cell. A cell's entries
// keep the order they were filed in, and remove moves the cell's last
// entry into the removed one's place, so findGroup, whose answer depends
// on that order when a cell is shared, returns what a slice per cell
// would. The zero value is an empty index.
type cellIndex struct {
	slots []cellSlot // empty, or a power of two long
	n     int        // occupied slots
	shift uint       // 64 − log2(len(slots)): home keeps the product's top bits
	// more holds the second and later entries of each shared cell, in
	// filing order; nil until a cell is shared.
	more map[grid.CellKey][]*entry
}

// cellSlot is one table slot: a cell and its first entry, nil when the
// slot is empty. The key is kept beside the entry so a probe compares
// keys without loading entries.
type cellSlot struct {
	key grid.CellKey
	e   *entry
}

// minIndexSlots is the table size the first add allocates.
const minIndexSlots = 8

// indexMix is the odd multiplier of home: 2^64 divided by the golden
// ratio (Fibonacci hashing).
const indexMix = 0x9e3779b97f4a7c15

// home returns the slot the probe for cell c starts at: the top bits of
// c·indexMix. Cell keys are already mixed; the multiplication spreads any
// structure left in them over the bits that index the table.
func (ix *cellIndex) home(c grid.CellKey) int {
	return int((uint64(c) * indexMix) >> ix.shift)
}

// slot returns the index of cell c's slot, or of the empty slot that
// ends its probe run if c has none; the table must not be empty.
func (ix *cellIndex) slot(c grid.CellKey) int {
	mask := len(ix.slots) - 1
	i := ix.home(c)
	for ix.slots[i].e != nil && ix.slots[i].key != c {
		i = (i + 1) & mask
	}
	return i
}

// reserve sizes the table for n cells at load ½, so that filing entries
// of up to n cells in all never grows it.
func (ix *cellIndex) reserve(n int) {
	if 2*n > len(ix.slots) {
		ix.rehash(max(minIndexSlots, 1<<bits.Len(uint(2*n-1))))
	}
}

// add files e under its cell, after the cell's other entries.
func (ix *cellIndex) add(e *entry) {
	if 2*(ix.n+1) > len(ix.slots) {
		ix.rehash(max(minIndexSlots, 2*len(ix.slots)))
	}
	i := ix.slot(e.cell)
	if ix.slots[i].e != nil {
		if ix.more == nil {
			ix.more = make(map[grid.CellKey][]*entry)
		}
		more := append(ix.more[e.cell], e)
		ix.more[e.cell] = more
		e.at = uint32(len(more))
		return
	}
	ix.slots[i] = cellSlot{key: e.cell, e: e}
	e.at = 0
	ix.n++
}

// rehash moves every cell into a fresh table of size slots.
func (ix *cellIndex) rehash(size int) {
	old := ix.slots
	ix.slots = make([]cellSlot, size)
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.e != nil {
			ix.slots[ix.slot(s.key)] = s
		}
	}
}

// remove unfiles e, moving its cell's last entry into e's place.
func (ix *cellIndex) remove(e *entry) {
	if ix.n == 0 {
		return
	}
	i := ix.slot(e.cell)
	if ix.slots[i].e == nil {
		return
	}
	more := ix.more[e.cell]
	at := ix.place(i, more, e)
	if at < 0 {
		return
	}
	if len(more) == 0 {
		ix.vacate(i)
		return
	}
	last := more[len(more)-1]
	if at == 0 {
		ix.slots[i].e = last
	} else {
		more[at-1] = last
	}
	last.at = uint32(at)
	more[len(more)-1] = nil
	if more = more[:len(more)-1]; len(more) == 0 {
		delete(ix.more, e.cell)
	} else {
		ix.more[e.cell] = more
	}
}

// place returns e's place in the cell whose slot is i and whose
// overflow is more: 0 for the slot, j > 0 for more[j−1], or −1 if e is
// not filed there. e.at says where unless another index has filed e
// since (a window merge files live entries in a scratch index too); then
// the cell is scanned.
func (ix *cellIndex) place(i int, more []*entry, e *entry) int {
	if at := int(e.at); at == 0 && ix.slots[i].e == e || at > 0 && at <= len(more) && more[at-1] == e {
		return at
	}
	if ix.slots[i].e == e {
		return 0
	}
	if j := slices.Index(more, e); j >= 0 {
		return j + 1
	}
	return -1
}

// vacate empties slot i by backward-shift deletion: each later slot of
// the run whose probe path passes the hole moves into it, and the hole
// moves on, until the run ends.
func (ix *cellIndex) vacate(i int) {
	mask := len(ix.slots) - 1
	for j := (i + 1) & mask; ix.slots[j].e != nil; j = (j + 1) & mask {
		// The path from home h to j passes i exactly when i is no
		// further from j than h is.
		if h := ix.home(ix.slots[j].key); (j-h)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = cellSlot{}
	ix.n--
}

// clear empties the index, keeping its table.
func (ix *cellIndex) clear() {
	clear(ix.slots)
	ix.n = 0
	ix.more = nil
}

// findGroup returns the stored entry whose representative is a
// near-duplicate of p, or nil. Only the cells of adjKeys — adj(p) — are
// probed, in order, each cell's entries in the order they were filed: in
// the Euclidean space any u with d(u,p) ≤ α satisfies d(p, cell(u)) ≤ α,
// so cell(u) ∈ adj(p); custom Spaces must provide the analogous
// completeness in Adjacent.
func (ix *cellIndex) findGroup(p geom.Point, adjKeys []grid.CellKey, spc Space) *entry {
	if ix.n == 0 {
		return nil
	}
	for _, c := range adjKeys {
		s := &ix.slots[ix.slot(c)]
		if s.e == nil {
			continue
		}
		if spc.SameGroup(s.e.rep, p) {
			return s.e
		}
		for _, e := range ix.more[c] {
			if spc.SameGroup(e.rep, p) {
				return e
			}
		}
	}
	return nil
}
