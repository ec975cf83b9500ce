package core

import (
	"errors"
	"math/rand/v2"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hash"
)

// ErrEmptySketch is returned by queries when no group has been sampled —
// either the stream is empty or the (probability ≤ 1/m) failure event of
// Lemma 2.5 occurred.
var ErrEmptySketch = errors.New("core: no sampled group available")

// Sampler is Algorithm 1: the robust ℓ0-sampler for the infinite-window
// streaming model. It maintains the accept set Sacc (representatives of
// sampled groups) and the reject set Srej (representatives of groups that
// touch a sampled cell but whose first point does not), doubling the
// reciprocal sample rate R whenever |Sacc| exceeds κ0·K·log m.
//
// With probability 1−1/m over the whole stream, Query returns a point from
// each group of the natural partition with equal probability (Theorem 2.4)
// for well-separated data, and with probability Θ(1/F0(S,α)) per ball for
// general data (Theorem 3.1). Space and per-point time are O(log m) words
// in constant dimension.
//
// Sampler is not safe for concurrent use; wrap it in a mutex or shard the
// stream if concurrent Process calls are needed.
type Sampler struct {
	opts    Options
	spc     Space
	ls      *hash.LevelSampler
	src     *rand.PCG // rng's source, which Reset re-seeds
	rng     *rand.Rand
	r       uint64   // reciprocal of the cell sample rate, a power of two
	entries []*entry // in stamp order, each stamped within [1, n] (see MarshalBinary)
	index   cellIndex
	// acc is Sacc: the accepted entries, in entries order. Like index it
	// points at stored entries, so it adds no sketch words.
	acc    []*entry
	n      int64 // points processed
	space  spaceMeter
	rehash int // number of rate doublings performed (diagnostics)

	// lastHit caches the entry that matched the previous point. Streams
	// with near-duplicate locality (bursts of points from one group, the
	// common shape in batched ingestion) hit the cache and skip the
	// Adjacent/findGroup grid hashing entirely; see Process. Invalidated
	// whenever entries can be dropped (doubleR).
	lastHit *entry

	// adjBuf is Process's adjacency scratch: each point's search reuses
	// it, and only a stored entry gets a copy.
	adjBuf []grid.CellKey

	// free holds the entries doubleR and Reset dropped, cleared, for
	// newEntry to hand out again: a sampler recycles its own entries, so
	// one that is reset and refilled allocates none up to its peak.
	// chunk is the unused tail of the entries newEntry last allocated.
	free  []*entry
	chunk []entry
	// pts is the unused tail of the slab that stored points are carved
	// from (own).
	pts []float64
}

// NewSampler constructs an infinite-window robust ℓ0-sampler.
func NewSampler(opts Options) (*Sampler, error) {
	return newSampler(opts, maxAccReserve)
}

// maxAccReserve caps the Sacc capacity NewSampler reserves up front; a
// larger Sacc grows by append.
const maxAccReserve = 1 << 12

// newSampler is NewSampler with the Sacc capacity reserved up front
// capped at accCap. Process keeps Sacc within the threshold plus the
// entry that trips a doubling; reserving that once means ingest never
// grows it. A decoder passes 0 and reserves by the entry count it has
// checked against its input, so a decode allocates in proportion to the
// bytes it reads, not to the options a blob declares.
func newSampler(opts Options, accCap int) (*Sampler, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	spc, ls, src := opts.derive()
	return &Sampler{
		opts: opts,
		spc:  spc,
		ls:   ls,
		src:  src,
		rng:  rand.New(src),
		r:    1,
		acc:  make([]*entry, 0, min(opts.acceptThreshold()+1, accCap)),
	}, nil
}

// Reset restores the state NewSampler builds: no entries, rate 1, no
// points processed, zero space, and the query RNG re-seeded as the
// options derive it, so a reset sampler fed a stream answers and
// serializes exactly as a fresh one. It keeps the sampler's memory: the
// entries go to its free list, and the entry list, Sacc and the cell
// index keep their capacity. The engine rebuilds its cached snapshot
// this way (Reset, then MergeFrom of every shard), allocating nothing
// once the snapshot has reached its largest size.
func (s *Sampler) Reset() {
	for _, e := range s.entries {
		s.freeEntry(e)
	}
	clear(s.entries)
	clear(s.acc)
	s.entries, s.acc = s.entries[:0], s.acc[:0]
	s.index.clear()
	s.r, s.n, s.rehash = 1, 0, 0
	s.space = spaceMeter{}
	s.lastHit = nil
	s.opts.reseed(s.src)
}

// newEntry returns an entry from the free list, or else the next one of
// the current chunk, allocating a chunk when that is used up: one of
// about as many entries as the sampler holds, between 8 and
// maxEntryChunk. The caller overwrites every field.
func (s *Sampler) newEntry() *entry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free = s.free[:n-1]
		return e
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]entry, min(max(len(s.entries), 8), maxEntryChunk))
	}
	e := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return e
}

// maxEntryChunk caps the entries newEntry allocates at once.
const maxEntryChunk = 64

// freeEntry clears e, so that it pins none of its points, and puts it on
// the free list. The caller must have removed every reference to it (the
// index, the entry list, Sacc, lastHit) first.
func (s *Sampler) freeEntry(e *entry) {
	*e = entry{}
	s.free = append(s.free, e)
}

// ptsChunk is the number of points in one slab that own carves from.
const ptsChunk = 64

// own copies p into memory the sampler owns and returns the copy, so that
// a stored point does not pin the batch it arrived in. The copy is never
// written again: snapshots, merges and query answers alias it. So own
// carves it from pts, the unused tail of a slab of ptsChunk points, and
// never hands its memory out twice; a slab is collected once no stored
// point lies in it.
func (s *Sampler) own(p geom.Point) geom.Point {
	if len(s.pts) < len(p) {
		s.pts = make([]float64, ptsChunk*len(p))
	}
	return carve(&s.pts, p)
}

// Options returns the effective (normalized) options.
func (s *Sampler) Options() Options { return s.opts }

// Processed returns the number of points fed to the sampler.
func (s *Sampler) Processed() int64 { return s.n }

// R returns the current reciprocal sample rate (a power of two).
func (s *Sampler) R() uint64 { return s.r }

// Rehashes returns how many times the sample rate was halved.
func (s *Sampler) Rehashes() int { return s.rehash }

// AcceptSize returns |Sacc|, the number of accepted groups.
func (s *Sampler) AcceptSize() int { return len(s.acc) }

// RejectSize returns |Srej|, the number of rejected groups retained.
func (s *Sampler) RejectSize() int { return len(s.entries) - len(s.acc) }

// SpaceWords returns the current number of sketch words.
func (s *Sampler) SpaceWords() int { return s.space.Live() }

// PeakSpaceWords returns the peak sketch words over the stream so far
// (the paper's pSpace).
func (s *Sampler) PeakSpaceWords() int { return s.space.Peak() }

// Process feeds the next stream point to the sampler. It panics on points
// of the wrong dimension or with non-finite coordinates — both indicate a
// caller bug that would silently corrupt the grid arithmetic.
func (s *Sampler) Process(p geom.Point) {
	if s.matchLast(p) {
		return
	}
	s.adjBuf = s.spc.Adjacent(s.adjBuf[:0], p)
	s.observe(p, s.adjBuf)
}

// matchLast counts p in and reports whether the duplicate fast path
// absorbed it, so that it needs no adjacency list.
//
// Fast path: if p is a near-duplicate of the group matched by the
// previous point, the Line 4 membership test succeeds without touching
// the grid — one distance computation instead of the Adjacent DFS plus
// hash lookups. This amortizes the hashing cost across duplicate runs
// and is what makes ProcessBatch on bursty streams cheap. It is
// disabled under RandomRepresentative: on non-separated data p can lie
// within α of several stored representatives, and the reservoir
// bookkeeping must credit the same entry findGroup's adjacency order
// would, not the most recent match.
func (s *Sampler) matchLast(p geom.Point) bool {
	validatePoint(p, s.opts.Dim)
	s.n++
	e := s.lastHit
	return e != nil && !s.opts.RandomRepresentative && s.spc.SameGroup(e.rep, p)
}

// observe implements lines 4–12 of Algorithm 1 for a point that missed
// the fast path, with adjacency list adjKeys = adj(p), which a stored
// entry copies (adjKeys is the caller's scratch).
func (s *Sampler) observe(p geom.Point, adjKeys []grid.CellKey) {
	// Line 4: if p belongs to a known candidate group it is not the first
	// point of that group; update the group's auxiliary state and move on.
	if e := s.index.findGroup(p, adjKeys, s.spc); e != nil {
		s.lastHit = e
		if s.opts.RandomRepresentative && e.countPoint(s.rng) {
			e.pick = s.own(p)
		}
		return
	}

	// p is the first point of its group among groups we can still see.
	// Lines 6–9: classify the group by its first point's cell. The
	// maximum level over adj(p) decides "∃C ∈ adj(p) s.t. h_R(C) = 0";
	// an ignored point has to hash every cell of adj(p) for that anyway,
	// and a stored entry caches the level, so rate doublings, snapshots
	// and merges never hash its neighbourhood again. Adjacent lists
	// cell(p) first.
	cp := adjKeys[0]
	lvl := hashLevel(s.ls, cp)
	near, wit := adjLevel(s.ls, adjKeys, cp, lvl)
	if !sampledAt(near, s.r) {
		return // ignored group: no cell of adj(p) is sampled
	}
	rep := s.own(p)
	e := s.newEntry()
	*e = entry{
		rep:      rep,
		cell:     cp,
		adj:      slices.Clone(adjKeys),
		accepted: sampledAt(lvl, s.r),
		cellLvl:  lvl + 1,
		adjLvl:   near + 1,
		wit:      witByte(wit),
		stamp:    s.n,
		count:    1,
		pick:     rep,
	}
	s.store(e)
	s.lastHit = e
	// Lines 10–12: keep |Sacc| within the threshold by halving the
	// sample rate (doubling R) and re-classifying stored entries.
	for len(s.acc) > s.opts.acceptThreshold() {
		s.doubleR()
	}
}

// store appends a classified entry to the sketch: the entry list, the
// cell index, Sacc when accepted, and the space meter.
func (s *Sampler) store(e *entry) {
	s.entries = append(s.entries, e)
	s.index.add(e)
	if e.accepted {
		s.acc = append(s.acc, e)
	}
	s.space.add(e.words(s.opts.RandomRepresentative, false))
}

// doubleR doubles R and re-classifies every stored entry per
// Definition 2.2, rebuilding Sacc in the same pass. Because sampled sets
// are nested across rates (Fact 1b), a group ignored before stays
// ignored, an accepted group either stays accepted or becomes
// rejected/dropped, and a rejected group either stays rejected or is
// dropped; no new candidate groups can appear, so Sacc only shrinks.
func (s *Sampler) doubleR() {
	s.r *= 2
	s.rehash++
	s.lastHit = nil // entries may be dropped below; the cache must not outlive them
	kept := s.entries[:0]
	acc := s.acc[:0]
	for _, e := range s.entries {
		if !e.classify(s.ls, s.r) {
			s.index.remove(e)
			s.space.sub(e.words(s.opts.RandomRepresentative, false))
			s.freeEntry(e)
			continue
		}
		if e.accepted {
			acc = append(acc, e)
		}
		kept = append(kept, e)
	}
	// Zero the tails: the dropped entries are on the free list.
	clear(s.entries[len(kept):])
	clear(s.acc[len(acc):])
	s.entries, s.acc = kept, acc
}

// Query returns a robust ℓ0-sample: a uniformly random element of Sacc.
// With RandomRepresentative set, the returned point is a uniform point of
// the sampled group rather than its representative. The returned point must
// not be mutated by the caller.
func (s *Sampler) Query() (geom.Point, error) {
	if len(s.acc) == 0 {
		return nil, ErrEmptySketch
	}
	return s.answer(s.acc[s.rng.IntN(len(s.acc))]), nil
}

// QueryK returns min(k, |Sacc|) distinct sampled groups' points, a sample
// of k groups without replacement (Section 2.3). Construct the sampler with
// Options.K = k so that |Sacc| ≥ k holds with high probability. The error
// is non-nil only when no group at all is available.
func (s *Sampler) QueryK(k int) ([]geom.Point, error) {
	if len(s.acc) == 0 {
		return nil, ErrEmptySketch
	}
	k = min(k, len(s.acc))
	// Partial Fisher–Yates over Sacc in place, then the swaps undone in
	// reverse, so Sacc is back in entries order for the next query.
	var swapBuf [16]int
	swaps := swapBuf[:0]
	out := make([]geom.Point, 0, k)
	for i := range k {
		j := i + s.rng.IntN(len(s.acc)-i)
		s.acc[i], s.acc[j] = s.acc[j], s.acc[i]
		swaps = append(swaps, j)
		out = append(out, s.answer(s.acc[i]))
	}
	for i := len(swaps) - 1; i >= 0; i-- {
		j := swaps[i]
		s.acc[i], s.acc[j] = s.acc[j], s.acc[i]
	}
	return out, nil
}

// answer returns the point a query reports for an accepted entry.
func (s *Sampler) answer(e *entry) geom.Point {
	if s.opts.RandomRepresentative {
		return e.pick
	}
	return e.rep
}

// AcceptedReps returns the representative points currently in Sacc, in
// arrival order. Intended for tests, diagnostics and the F0 estimator.
func (s *Sampler) AcceptedReps() []geom.Point {
	out := make([]geom.Point, len(s.acc))
	for i, e := range s.acc {
		out[i] = e.rep
	}
	return out
}

// RejectedReps returns the representative points currently in Srej, in
// arrival order. Intended for tests and diagnostics.
func (s *Sampler) RejectedReps() []geom.Point {
	out := make([]geom.Point, 0, s.RejectSize())
	for _, e := range s.entries {
		if !e.accepted {
			out = append(out, e.rep)
		}
	}
	return out
}
