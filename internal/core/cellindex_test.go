package core

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
)

// bucketIndex is the reference model of cellIndex: a slice of entries
// per cell key, appended to on add, with remove moving the bucket's last
// entry into the gap, and findGroup scanning the buckets of adjKeys in
// order.
type bucketIndex map[grid.CellKey][]*entry

func (m bucketIndex) add(e *entry) { m[e.cell] = append(m[e.cell], e) }

func (m bucketIndex) remove(e *entry) {
	bucket := m[e.cell]
	i := slices.Index(bucket, e)
	if i < 0 {
		return
	}
	bucket[i] = bucket[len(bucket)-1]
	if bucket = bucket[:len(bucket)-1]; len(bucket) == 0 {
		delete(m, e.cell)
	} else {
		m[e.cell] = bucket
	}
}

func (m bucketIndex) findGroup(p geom.Point, adjKeys []grid.CellKey, spc Space) *entry {
	for _, c := range adjKeys {
		for _, e := range m[c] {
			if spc.SameGroup(e.rep, p) {
				return e
			}
		}
	}
	return nil
}

// tagSpace groups points by their first coordinate, a tag: every entry
// with the probed tag matches, so findGroup's answer depends on the
// order in which a cell's entries are probed. Only SameGroup is used.
type tagSpace struct{}

func (tagSpace) Cell(geom.Point) grid.CellKey { panic("tagSpace: Cell") }

func (tagSpace) Adjacent([]grid.CellKey, geom.Point) []grid.CellKey { panic("tagSpace: Adjacent") }

func (tagSpace) SameGroup(u, v geom.Point) bool { return u[0] == v[0] }

// keyWithTop returns a cell key whose product with indexMix has top
// as its top 10 bits, so at every table size up to 1024 slots its home
// is top's leading bits: keys built from one top share their home slot,
// and top = 1023 puts the home on the last slot.
func keyWithTop(top, low uint64) grid.CellKey {
	inv := uint64(indexMix) // Newton's iteration for the inverse mod 2^64
	for range 5 {
		inv *= 2 - indexMix*inv
	}
	return grid.CellKey((top<<54 | low&(1<<54-1)) * inv)
}

// indexPool holds the 16 cell keys the index tests file entries under:
// four whose home is the last slot (their probe runs wrap past it), four
// sharing another home, and eight more.
var indexPool = func() []grid.CellKey {
	var keys []grid.CellKey
	for i := range uint64(4) {
		keys = append(keys, keyWithTop(1023, 2*i+1), keyWithTop(0x2aa, 2*i+2))
	}
	rng := rand.New(rand.NewPCG(5, 7))
	for range 8 {
		keys = append(keys, grid.CellKey(rng.Uint64()))
	}
	return keys
}()

// indexCoverage records which shapes a run of driveCellIndex reached.
type indexCoverage struct {
	crowded  bool // a cell held three or more entries
	promoted bool // a cell's slot entry was removed while two or more followed it
	shared   bool // a cell was filed past the slot of another cell with the same home
	wrapped  bool // a cell was filed in a slot before its home
	grew     bool // the table grew while holding entries
}

// cellEntries returns the entries the table holds for cell c, in filing
// order, found by a scan of every slot rather than by a probe.
func (ix *cellIndex) cellEntries(c grid.CellKey) []*entry {
	for _, s := range ix.slots {
		if s.e != nil && s.key == c {
			return append([]*entry{s.e}, ix.more[c]...)
		}
	}
	return nil
}

// checkTable fails t unless the table holds want entries, no cell has
// two slots or overflow without a slot, and every occupied slot lies on
// its cell's probe path: no empty slot between its home and it.
func (ix *cellIndex) checkTable(t testing.TB, step, want int) {
	t.Helper()
	n, held := 0, 0
	seen := map[grid.CellKey]bool{}
	mask := len(ix.slots) - 1
	for j, s := range ix.slots {
		if s.e == nil {
			continue
		}
		if seen[s.key] {
			t.Fatalf("step %d: cell %x has two slots", step, uint64(s.key))
		}
		seen[s.key] = true
		n++
		held += 1 + len(ix.more[s.key])
		for i := ix.home(s.key); i != j; i = (i + 1) & mask {
			if ix.slots[i].e == nil {
				t.Fatalf("step %d: cell %x in slot %d is cut off from its home %d", step, uint64(s.key), j, ix.home(s.key))
			}
		}
	}
	for c, more := range ix.more {
		if !seen[c] || len(more) == 0 {
			t.Fatalf("step %d: cell %x has overflow %p without a slot", step, uint64(c), more)
		}
	}
	if n != ix.n || held != want {
		t.Fatalf("step %d: table holds %d entries in %d slots (counted %d), want %d entries", step, held, n, ix.n, want)
	}
}

// driveCellIndex runs the table and the model through the operations
// ops encodes, two bytes each: an opcode (add, add, remove, findGroup by
// its value mod 4) and an argument choosing the cell and tag, the entry
// removed, or the cells and tag probed. After every operation each
// cell's entries must match the model's bucket, in order, and every
// findGroup must return the model's entry.
func driveCellIndex(t testing.TB, ops []byte, cov *indexCoverage) {
	var ix cellIndex
	model := bucketIndex{}
	var live []*entry
	for step := 0; len(ops) >= 2; step, ops = step+1, ops[2:] {
		arg := ops[1]
		switch ops[0] % 4 {
		case 0, 1:
			e := &entry{cell: indexPool[arg%16], rep: geom.Point{float64(arg / 16 % 3)}}
			size := len(ix.slots)
			ix.add(e)
			model.add(e)
			live = append(live, e)
			if cov != nil {
				cov.note(&ix, e, size, len(model[e.cell]))
			}
		case 2:
			if len(live) == 0 {
				continue
			}
			i := int(arg) % len(live)
			e := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if cov != nil && len(model[e.cell]) >= 3 && model[e.cell][0] == e {
				cov.promoted = true
			}
			ix.remove(e)
			model.remove(e)
		case 3:
			adj := make([]grid.CellKey, 1+arg/16%4)
			for j := range adj {
				adj[j] = indexPool[(int(arg)+5*j)%16]
			}
			p := geom.Point{float64(arg / 64 % 3)}
			if got, want := ix.findGroup(p, adj, tagSpace{}), model.findGroup(p, adj, tagSpace{}); got != want {
				t.Fatalf("step %d: findGroup(tag %v, %d cells) = %p, model %p", step, p[0], len(adj), got, want)
			}
		}
		ix.checkTable(t, step, len(live))
		for _, c := range indexPool {
			if got, want := ix.cellEntries(c), model[c]; !slices.Equal(got, want) {
				t.Fatalf("step %d: cell %x holds %p, model %p", step, uint64(c), got, want)
			}
		}
	}
}

// note records the shapes the table reached when e was added to it,
// growing it from size slots, with n entries now in e's cell.
func (cov *indexCoverage) note(ix *cellIndex, e *entry, size, n int) {
	cov.crowded = cov.crowded || n >= 3
	cov.grew = cov.grew || (size > 0 && len(ix.slots) > size)
	if n > 1 {
		return // filed behind the cell's slot entry
	}
	mask := len(ix.slots) - 1
	h := ix.home(e.cell)
	for i, n := h, 0; ix.slots[i].e != e; i, n = (i+1)&mask, n+1 {
		if n == len(ix.slots) {
			return // e is in no slot: driveCellIndex's checks report it
		}
		cov.shared = cov.shared || ix.home(ix.slots[i].key) == h
		cov.wrapped = cov.wrapped || i == mask
	}
}

// TestCellIndexMatchesBuckets is the differential test of the flat cell
// index against the slice-per-cell map it replaced: random sequences of
// add, remove and findGroup, add-heavy then remove-heavy so the table
// grows from empty and drains again, over keys chosen to crowd one cell,
// share home slots and wrap probe runs past the last slot. The table
// must hold each cell's entries in the model's order throughout, and
// findGroup must return the model's entry every time.
func TestCellIndexMatchesBuckets(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 17))
	var cov indexCoverage
	for range 40 {
		ops := make([]byte, 0, 1200)
		for i := range 600 {
			op := byte(rng.IntN(4))
			if i < 300 && op == 2 && rng.IntN(2) == 0 {
				op = 0 // filling: fewer removes
			} else if i >= 300 && op < 2 && rng.IntN(2) == 0 {
				op = 2 // draining: fewer adds
			}
			ops = append(ops, op, byte(rng.Uint32()))
		}
		driveCellIndex(t, ops, &cov)
	}
	if !cov.crowded || !cov.promoted || !cov.shared || !cov.wrapped || !cov.grew {
		t.Fatalf("sequences missed a shape: %+v", cov)
	}
}

// FuzzCellIndex is TestCellIndexMatchesBuckets over fuzzed operation
// sequences: the input bytes decode, two at a time, to add, remove and
// findGroup calls (see driveCellIndex).
func FuzzCellIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 16, 0, 32, 3, 0, 2, 0, 3, 16})
	f.Add([]byte{0, 0, 1, 2, 0, 4, 0, 6, 0, 1, 2, 1, 3, 0, 3, 64})
	f.Fuzz(func(t *testing.T, ops []byte) {
		driveCellIndex(t, ops, nil)
	})
}

// TestCellIndexEntryInTwoIndexes files an entry in a second index, as a
// window merge files live entries in a scratch index, and then removes
// it from the first: the place the second index noted on the entry must
// not mislead the first.
func TestCellIndexEntryInTwoIndexes(t *testing.T) {
	a, b, c := &entry{cell: indexPool[0]}, &entry{cell: indexPool[0]}, &entry{cell: indexPool[0]}
	var first, second cellIndex
	for _, e := range []*entry{a, b, c} {
		first.add(e)
	}
	second.add(b)
	first.remove(b)
	if got, want := first.cellEntries(indexPool[0]), []*entry{a, c}; !slices.Equal(got, want) {
		t.Fatalf("cell holds %p after removing b (%p), want %p", got, b, want)
	}
	first.remove(a)
	if got, want := first.cellEntries(indexPool[0]), []*entry{c}; !slices.Equal(got, want) {
		t.Fatalf("cell holds %p after removing a (%p), want %p", got, a, want)
	}
}

// TestUnmarshalCrowdedCell decodes blobs whose entries all share one
// representative, hence one cell, as a crafted blob can: in dimension 1
// at R = 1 every such entry passes the decoder's accept check. Filing an
// entry behind its cell's others must cost O(1), so decoding 4× the
// entries may cost at most 8× the time; filing each one at the end of a
// probe run through the cell's others would make it 16×.
func TestUnmarshalCrowdedCell(t *testing.T) {
	blob := func(n int) []byte {
		s, err := NewSampler(Options{Alpha: 1, Dim: 1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		p := geom.Point{0.5}
		adj := s.spc.Adjacent(nil, p)
		for i := range n {
			s.entries = append(s.entries, &entry{rep: p, cell: adj[0], adj: adj, accepted: true, stamp: int64(i + 1), count: 1})
		}
		s.n = int64(n)
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	decode := func(n int) time.Duration {
		b := blob(n)
		best := time.Duration(1<<63 - 1)
		for range 3 {
			start := time.Now()
			s, err := UnmarshalSampler(b)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
			if s.AcceptSize() != n || s.index.n != 1 || len(s.index.more) != 1 {
				t.Fatalf("decoded %d accepted entries in %d cells (%d shared), want %d in 1 (1)", s.AcceptSize(), s.index.n, len(s.index.more), n)
			}
		}
		return best
	}
	small, large := decode(20_000), decode(80_000)
	ratio := float64(large) / float64(small)
	if ratio > 8 {
		t.Fatalf("80k entries in one cell decode in %v, %.1f× the 20k's %v", large, ratio, small)
	}
	t.Logf("80k entries %v, 20k %v: %.2f×", large, small, ratio)
}

// TestCellIndexCrowdedRemove files n entries in one cell and removes them
// in filing order, the order in which a level's expiry drops its oldest
// entries; each removal then moves the cell's last entry into the gap.
// Finding the removed entry must not scan the cell, so removing 4× the
// entries may cost at most 8× the time; a scan makes it about 16×.
func TestCellIndexCrowdedRemove(t *testing.T) {
	run := func(n int) time.Duration {
		es := make([]*entry, n)
		for i := range es {
			es[i] = &entry{cell: indexPool[0], rep: geom.Point{0}}
		}
		best := time.Duration(1<<63 - 1)
		for range 3 {
			var ix cellIndex
			for _, e := range es {
				ix.add(e)
			}
			start := time.Now()
			for _, e := range es {
				ix.remove(e)
			}
			best = min(best, time.Since(start))
			if ix.n != 0 || len(ix.more) != 0 {
				t.Fatalf("%d cells and %d overflows left after removing every entry", ix.n, len(ix.more))
			}
		}
		return best
	}
	small, large := run(20_000), run(80_000)
	ratio := float64(large) / float64(small)
	if ratio > 8 {
		t.Fatalf("removing 80k entries of one cell took %v, %.1f× the 20k's %v", large, ratio, small)
	}
	t.Logf("80k entries %v, 20k %v: %.2f×", large, small, ratio)
}
