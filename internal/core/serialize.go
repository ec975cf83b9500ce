package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/grid"
)

// ErrNotSerializable is wrapped by MarshalBinary when the sketch has no
// wire format (currently: sketches built with a custom Space, which is
// not part of the wire format and could not be re-derived on load).
var ErrNotSerializable = errors.New("core: not serializable")

// ErrRetiredFormat is wrapped by every decoder that is handed state in
// a retired wire format: envelope version 1 (ErrRetiredGob) or the l0s1
// sampler payload. Such state cannot be read; each refusal names the
// format and its upgrade path (docs/engine.md "Wire format").
var ErrRetiredFormat = errors.New("core: retired sketch wire format")

// ErrRetiredGob wraps ErrRetiredFormat for the gob payloads of envelope
// version 1: a version-1 envelope, a gob payload under a current
// envelope, or a checkpoint holding either. The upgrade path is to
// restore such state with a build from before the retirement and
// checkpoint it again, which writes the binary format.
var ErrRetiredGob = fmt.Errorf(`%w: envelope version 1 (gob) sketch state cannot be read; `+
	`compat policy (docs/engine.md "Wire format"): re-checkpoint it with a build from before the retirement`, ErrRetiredFormat)

// samplerMagic heads the binary wire form of a Sampler (format 2, which
// carries each entry's hash levels).
const samplerMagic = "l0s2"

// pickFollows flags, in the head byte of an l0s2 entry, a pick written
// after rep; the byte's low bits hold the own cell's hash level.
const pickFollows = 0x80

// maxLevel is the highest hash level: that of a hash with 64 trailing
// zero bits.
const maxLevel = 64

// trimMagic strips a binary payload's magic. The only payloads ever
// written without one are the gob payloads of envelope version 1, so a
// missing magic is reported as ErrRetiredGob.
func trimMagic(data []byte, magic string) ([]byte, error) {
	rest, ok := bytes.CutPrefix(data, []byte(magic))
	if !ok {
		return nil, fmt.Errorf("core: payload lacks the %q magic: %w", magic, ErrRetiredGob)
	}
	return rest, nil
}

// samplerPayload strips a Sampler payload's magic. It refuses by name
// the retired format 1, l0s1, which carried no levels.
func samplerPayload(data []byte) ([]byte, error) {
	if bytes.HasPrefix(data, []byte("l0s1")) {
		return nil, fmt.Errorf(`%w: the l0s1 sampler payload cannot be read; compat policy (docs/engine.md "Wire format"): `+
			`restore it with a build that reads l0s1 and writes l0s2, then checkpoint it again`, ErrRetiredFormat)
	}
	return trimMagic(data, samplerMagic)
}

// options writes the serializable subset of Options. Space is excluded
// by the callers' ErrNotSerializable guard. A copy's grid seed (Copy)
// follows GridSide under flag bit 4, so a sketch that is not a copy keeps
// its bytes.
func (w *binWriter) options(o Options) {
	w.f64(o.Alpha)
	w.uvarint(uint64(o.Dim))
	w.uvarint(uint64(o.StreamBound))
	w.uvarint(uint64(o.Kappa))
	w.uvarint(uint64(o.K))
	w.u64(o.Seed)
	w.u8(byte(o.Hash))
	var flags byte
	if o.HighDim {
		flags |= 1
	}
	if o.RandomRepresentative {
		flags |= 2
	}
	if o.gridShared {
		flags |= 4
	}
	w.u8(flags)
	w.f64(o.GridSide)
	if o.gridShared {
		w.u64(o.gridSeed)
	}
}

// options reads the counterpart of binWriter.options.
func (r *binReader) options() Options {
	var o Options
	o.Alpha = r.f64()
	o.Dim = int(r.uvarint())
	o.StreamBound = int(r.uvarint())
	o.Kappa = int(r.uvarint())
	o.K = int(r.uvarint())
	o.Seed = r.u64()
	o.Hash = HashKind(r.u8())
	flags := r.u8()
	o.HighDim = flags&1 != 0
	o.RandomRepresentative = flags&2 != 0
	o.GridSide = r.f64()
	if flags&4 != 0 {
		o.gridSeed, o.gridShared = r.u64(), true
	}
	return o
}

// MarshalBinary serializes the sketch for checkpointing or shipping to
// another process, in the length-prefixed binary format l0s2; the
// counterpart is UnmarshalSampler. Only dynamic state is stored: the
// grid, hash function and RNG are derived from Options.Seed, so Options
// plus the entry list reconstructs the sketch. Each entry carries the
// hash levels it caches — its own cell's, the maximum over adj(rep) and,
// when that is higher, the index of a cell at it (its witness) — so the
// encoder hashes nothing. The entries go out as the sampler holds them,
// which is in stamp order, each stamped within [1, Processed()]: Process
// stamps a new entry with the points processed so far, a merge files the
// other sampler's entries past its own in their order, and the decoders
// refuse any other order, so nothing sorts them. Pick is written only
// under RandomRepresentative, and only when it is not rep; count only
// under RandomRepresentative, the one reader of either.
// Sketches built with a custom Space cannot be serialized: the space is
// not part of the wire format and could not be re-derived on load.
func (s *Sampler) MarshalBinary() ([]byte, error) {
	if s.opts.Space != nil {
		return nil, fmt.Errorf("%w: sketch was built with a custom Space", ErrNotSerializable)
	}
	dim, rr := s.opts.Dim, s.opts.RandomRepresentative
	per := 8*dim + 8
	if rr {
		per += 8*dim + 2
	}
	w := binWriter{buf: make([]byte, 0, len(samplerMagic)+64+len(s.entries)*per)}
	w.buf = append(w.buf, samplerMagic...)
	w.options(s.opts)
	w.u64(s.r)
	w.varint(s.n)
	w.uvarint(uint64(s.rehash))
	w.uvarint(uint64(s.space.Peak()))
	w.uvarint(uint64(len(s.entries)))
	for _, e := range s.entries {
		own, near := e.ownLevel(s.ls), e.nearLevel(s.ls)
		pick := rr && !sameCoords(e.pick, e.rep)
		head := own
		if pick {
			head |= pickFollows
		}
		w.u8(head)
		w.u8(near)
		if near > own {
			w.uvarint(uint64(e.witnessAt(s.ls)))
		}
		w.varint(e.stamp)
		if rr {
			w.varint(e.count)
		}
		w.coords(e.rep)
		if pick {
			w.coords(e.pick)
		}
	}
	return w.buf, nil
}

// sameCoords reports whether a and b hold bit-identical coordinates.
func sameCoords(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// samplerHeader is what a Sampler payload holds between its options and
// its entries.
type samplerHeader struct {
	r      uint64
	n      int64
	rehash int
	peak   int
}

// samplerHeader reads the header and the entry count, checking the count
// against the input with perEntry the minimum encoded size of one entry,
// R for being a power of two and the points processed for being at
// least 0.
func (r *binReader) samplerHeader(perEntry int) (samplerHeader, int, error) {
	h := samplerHeader{r: r.u64(), n: r.varint(), rehash: int(r.uvarint()), peak: int(r.uvarint())}
	n, err := r.count(perEntry)
	if err != nil {
		return h, 0, err
	}
	if h.r == 0 || h.r&(h.r-1) != 0 {
		return h, 0, fmt.Errorf("core: corrupt sketch: R=%d is not a power of two", h.r)
	}
	if h.n < 0 {
		return h, 0, fmt.Errorf("core: corrupt sketch: %d points processed", h.n)
	}
	return h, n, nil
}

// minEntryBytes is the smallest l0s2 entry under o: the head and near
// bytes, a one-byte stamp (and count, under RandomRepresentative) and rep.
func minEntryBytes(o Options) int {
	if o.RandomRepresentative {
		return 4 + 8*o.Dim
	}
	return 3 + 8*o.Dim
}

// l0s2Entry reads one l0s2 entry into e, with both levels cached as
// entries keep them, and returns its witness index, -1 when it carries
// none. Without a carried pick, pick is rep; without a carried count,
// count is 1. It checks what needs no cell — the near level lies between
// the own level and maxLevel, and a pick follows only under
// RandomRepresentative — and latches any failure in r.err. Points come
// from r.slab.
func (r *binReader) l0s2Entry(e *entry, dim int, rr bool) int {
	head, near := r.u8(), r.u8()
	own := head &^ pickFollows
	wit := -1
	if near > own {
		wit = int(min(r.uvarint(), math.MaxInt32))
	}
	*e = entry{cellLvl: own + 1, adjLvl: near + 1, stamp: r.varint(), count: 1}
	if rr {
		e.count = r.varint()
	}
	e.rep = r.coords(dim)
	e.pick = e.rep
	if head&pickFollows != 0 {
		if !rr {
			r.fail(errors.New("core: corrupt sketch: pick on a sketch without RandomRepresentative"))
		}
		e.pick = r.coords(dim)
	}
	if near < own || near > maxLevel {
		r.fail(fmt.Errorf("core: corrupt sketch: near level %d with own level %d", near, own))
	}
	return wit
}

// checkEntry checks a read l0s2 entry against the entry before it,
// stamped prev, and against its blob's header h, and classifies it:
// entries come in stamp order, each stamped within [1, h.n] as Process
// stamps them, and some cell of adj(rep) must be sampled at h.r — the own
// cell exactly when the entry is accepted (Definition 2.2).
func checkEntry(e *entry, h samplerHeader, prev int64) error {
	if e.stamp < prev {
		return fmt.Errorf("core: corrupt sketch: entry stamped %d follows one stamped %d", e.stamp, prev)
	}
	if e.stamp < 1 || e.stamp > h.n {
		return fmt.Errorf("core: corrupt sketch: entry stamped %d, outside [1, %d], the points processed", e.stamp, h.n)
	}
	if !sampledAt(e.adjLvl-1, h.r) {
		return fmt.Errorf("core: corrupt sketch: entry %v has no cell of adj(rep) sampled at R=%d (near level %d)",
			e.rep, h.r, e.adjLvl-1)
	}
	e.accepted = sampledAt(e.cellLvl-1, h.r)
	return nil
}

// checkCells hashes e's cell and, unless wit is -1, its witness adj[wit],
// another cell of adj(rep), and requires the levels e carries to match:
// the cell's own level, the witness's the near level. This ties a blob to
// the options it declares, so a blob built under another seed or α fails
// here. A near level can still be understated, which only drops the
// entry earlier, as omitting it would; no entry is kept without a sampled
// cell of adj(rep).
func (s *Sampler) checkCells(e *entry, wit int) error {
	if l := hashLevel(s.ls, e.cell); l != e.cellLvl-1 {
		return fmt.Errorf("core: sketch inconsistent with options: entry %v carries level %d, its cell hashes to %d",
			e.rep, e.cellLvl-1, l)
	}
	if wit < 0 {
		return nil
	}
	if wit >= len(e.adj) || e.adj[wit] == e.cell {
		return fmt.Errorf("core: corrupt sketch: entry %v names witness %d, not another of its %d adjacent cells",
			e.rep, wit, len(e.adj))
	}
	if l := hashLevel(s.ls, e.adj[wit]); l != e.adjLvl-1 {
		return fmt.Errorf("core: sketch inconsistent with options: entry %v carries near level %d, its witness hashes to %d",
			e.rep, e.adjLvl-1, l)
	}
	e.wit = witByte(wit)
	return nil
}

// UnmarshalSampler reconstructs a Sampler from MarshalBinary output,
// decoding every entry straight into the sampler. The options are
// validated before anything sized by them is allocated. Each l0s2 entry
// is checked by hashing its own cell and its witness (checkCells) and
// against Definition 2.2 at the blob's R, so a blob from different
// options fails instead of mis-sampling; the levels it carries stay
// cached. Points come from one slab sized by the checked entry count,
// adjacency lists from one slab of their total size (packAdj), entries
// from one of their count. The query RNG is re-derived from the seed, so
// a restored sketch gives statistically equivalent (not bit-identical)
// query randomness. Retired payloads — the l0s1 payload, or one without
// a binary magic — fail with an error wrapping ErrRetiredFormat.
func UnmarshalSampler(data []byte) (*Sampler, error) {
	data, err := samplerPayload(data)
	if err != nil {
		return nil, err
	}
	r := binReader{data: data}
	s, err := r.sampler()
	if err != nil {
		return nil, err
	}
	h, n, err := r.samplerHeader(minEntryBytes(s.opts))
	if err != nil {
		return nil, err
	}
	s.r, s.n, s.rehash = h.r, h.n, h.rehash
	dim, rr := s.opts.Dim, s.opts.RandomRepresentative
	s.entries = make([]*entry, 0, n)
	s.acc = make([]*entry, 0, min(s.opts.acceptThreshold()+1, n))
	s.index.reserve(n)
	if rr {
		r.slab = make([]float64, 2*n*dim) // rep and pick
	} else {
		r.slab = make([]float64, n*dim)
	}
	keys := make([]grid.CellKey, 0, 4*n) // grows when lists average more than 4 cells
	s.chunk = make([]entry, n)
	prev := int64(math.MinInt64)
	for range n {
		e := s.newEntry()
		wit := r.l0s2Entry(e, dim, rr)
		if r.err != nil {
			return nil, fmt.Errorf("core: decoding sketch: %w", r.err)
		}
		if err := checkEntry(e, h, prev); err != nil {
			return nil, err
		}
		prev = e.stamp
		keys = decodeAdj(s.spc, e, keys)
		if err := s.checkCells(e, wit); err != nil {
			return nil, err
		}
		s.store(e)
	}
	packAdj(s.entries, keys)
	s.space.peak = max(s.space.peak, h.peak)
	return s, nil
}

// sampler reads a payload's options and builds an empty sampler on them.
func (r *binReader) sampler() (*Sampler, error) {
	opts := r.options()
	if r.err != nil {
		return nil, fmt.Errorf("core: decoding sketch: %w", r.err)
	}
	s, err := newSampler(opts, 0)
	if err != nil {
		return nil, fmt.Errorf("core: restoring sketch: %w", err)
	}
	return s, nil
}

// MergeBinary merges a serialized sampler built with the same Options —
// MarshalBinary output — into s in place. Its answers are those of
// UnmarshalSampler followed by MergeFrom, but it builds no second
// sampler: it files the blob's entries straight into s, in the order it
// reads them. The blob is checked whole before s changes, each entry as
// UnmarshalSampler checks it, so on error s is left as it was. Without
// RandomRepresentative, an entry whose near level is not sampled at the
// merged rate (s's R raised to the blob's) is skipped before its
// adjacency search or any allocation, and only its own cell is hashed:
// MergeFrom would drop it, and its count, the one thing it could add to
// a group it coalesces with, is read by nothing. Under
// RandomRepresentative nothing is skipped, because that count weighs a
// coalesced group's pick.
func (s *Sampler) MergeBinary(data []byte) error {
	data, err := samplerPayload(data)
	if err != nil {
		return err
	}
	r := binReader{data: data}
	opts := r.options()
	if r.err != nil {
		return fmt.Errorf("core: decoding sketch: %w", r.err)
	}
	if opts, err = opts.normalize(); err != nil {
		return fmt.Errorf("core: restoring sketch: %w", err)
	}
	if !mergeCompatible(s.opts, opts) {
		return ErrMergeOptions
	}
	h, n, err := r.samplerHeader(minEntryBytes(opts))
	if err != nil {
		return err
	}
	if err := checkCounts(s.n, h.n); err != nil {
		return err
	}
	sc := foldScratchPool.Get().(*foldScratch)
	defer foldScratchPool.Put(sc)
	sc.reset(s.opts.Dim)
	rate := max(s.r, h.r)
	body := data[r.off:]
	pts, err := s.checkFold(&r, n, h, rate, sc)
	if err != nil {
		return err
	}
	s.fileFold(body, n, h, rate, pts, sc)
	return nil
}

// foldScratch is MergeBinary's working memory, reused across calls: the
// adjacency lists checkFold searched, back to back, the end of each in
// keys, and room for one entry's points.
type foldScratch struct {
	keys []grid.CellKey
	ends []int
	pt   []float64
}

var foldScratchPool = sync.Pool{New: func() any { return new(foldScratch) }}

// reset empties sc for a blob of dimension dim.
func (sc *foldScratch) reset(dim int) {
	sc.keys, sc.ends = sc.keys[:0], sc.ends[:0]
	sc.pt = slices.Grow(sc.pt[:0], 2*dim)[:2*dim]
}

// folds reports whether MergeBinary files e into a sampler at rate: every
// entry under RandomRepresentative, else one sampled at rate.
func folds(e *entry, rr bool, rate uint64) bool {
	return rr || sampledAt(e.adjLvl-1, rate)
}

// checkFold is MergeBinary's first pass over the n entries r holds. It
// checks each as UnmarshalSampler does against the blob's header h, but
// hashes only the own cell of an entry it will not file at rate, and
// appends the adjacency lists of the others to sc. It returns how many
// coordinates the filed entries' points hold.
func (s *Sampler) checkFold(r *binReader, n int, h samplerHeader, rate uint64, sc *foldScratch) (int, error) {
	dim, rr := s.opts.Dim, s.opts.RandomRepresentative
	prev := int64(math.MinInt64)
	pts := 0
	var e entry
	for range n {
		r.slab = sc.pt
		wit := r.l0s2Entry(&e, dim, rr)
		if r.err != nil {
			return 0, fmt.Errorf("core: decoding sketch: %w", r.err)
		}
		if err := checkEntry(&e, h, prev); err != nil {
			return 0, err
		}
		prev = e.stamp
		if !folds(&e, rr, rate) {
			e.cell = s.spc.Cell(e.rep)
			if err := s.checkCells(&e, -1); err != nil {
				return 0, err
			}
			continue
		}
		start := len(sc.keys)
		sc.keys = s.spc.Adjacent(sc.keys, e.rep)
		e.adj, e.cell = sc.keys[start:], sc.keys[start]
		if err := s.checkCells(&e, wit); err != nil {
			return 0, err
		}
		sc.ends = append(sc.ends, len(sc.keys))
		pts += dim
		if carriesPick(&e) {
			pts += dim
		}
	}
	return pts, nil
}

// carve copies p to the front of *slab and returns the copy, a view of
// the slab, which it advances past it.
func carve(slab *[]float64, p []float64) []float64 {
	n := len(p)
	out := (*slab)[:n:n]
	copy(out, p)
	*slab = (*slab)[n:]
	return out
}

// carriesPick reports whether a read l0s2 entry's pick came with it
// rather than aliasing rep.
func carriesPick(e *entry) bool { return &e.pick[0] != &e.rep[0] }

// fileFold is MergeBinary's second pass over the entries in body, which
// checkFold checked: it raises s to the blob's rate, files every entry
// checkFold kept, in blob order, as MergeFrom files a decoded sampler's,
// and adds the blob's counters. The kept entries' points go to one slab
// of pts coordinates, their adjacency lists to one of exactly their size.
func (s *Sampler) fileFold(body []byte, n int, h samplerHeader, rate uint64, pts int, sc *foldScratch) {
	raised := 0
	for s.r < h.r {
		s.doubleR()
		raised++
	}
	s.index.reserve(len(s.entries) + len(sc.ends))
	dim, rr := s.opts.Dim, s.opts.RandomRepresentative
	slab := make([]float64, pts)
	keys := slices.Clone(sc.keys)
	r := binReader{data: body}
	offset := s.n
	var e entry
	kept, lo := 0, 0
	for range n {
		r.slab = sc.pt
		wit := r.l0s2Entry(&e, dim, rr)
		if !folds(&e, rr, rate) {
			continue
		}
		hi := sc.ends[kept]
		kept++
		e.adj, keys = keys[:hi-lo:hi-lo], keys[hi-lo:]
		lo = hi
		e.cell, e.wit = e.adj[0], witByte(wit)
		if carriesPick(&e) {
			e.rep, e.pick = carve(&slab, e.rep), carve(&slab, e.pick)
		} else {
			e.rep = carve(&slab, e.rep)
			e.pick = e.rep
		}
		_ = s.mergeEntry(&e, offset) // e.rep has Dim coordinates: it cannot fail
	}
	s.n += h.n
	s.rehash += h.rehash - raised
	for len(s.acc) > s.opts.acceptThreshold() {
		s.doubleR()
	}
}

// decodeAdj sets a decoded entry's adjacency list and cell, its first
// cell, appending the list to keys, the decoder's buffer of the lists
// decoded so far, and returns the extended buffer. e.adj views keys until
// packAdj moves it.
func decodeAdj(spc Space, e *entry, keys []grid.CellKey) []grid.CellKey {
	start := len(keys)
	keys = spc.Adjacent(keys, e.rep)
	e.adj = keys[start:len(keys):len(keys)]
	e.cell = e.adj[0]
	return keys
}

// packAdj moves the adjacency lists of es, which decodeAdj appended to
// keys back to back in es order, into one slab of exactly their total
// size, so the decoder's buffer (and its spare capacity) can be dropped
// or reused. Every entry's list is a view of the slab.
func packAdj(es []*entry, keys []grid.CellKey) {
	slab := slices.Clone(keys)
	for _, e := range es {
		n := len(e.adj)
		e.adj, slab = slab[:n:n], slab[n:]
	}
}
