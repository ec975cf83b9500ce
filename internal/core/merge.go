package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// ErrMergeOptions is returned by Merge when the two sketches were not
// built with identical options (they must share the grid, hash function
// and thresholds for the union to be meaningful).
var ErrMergeOptions = errors.New("core: samplers have different options")

// Merge combines two Algorithm 1 sketches built with the SAME Options
// (hence the same seed-derived grid and hash function) over different
// streams, producing the sketch of the concatenated stream a ++ b. This
// is the distributed-streams setting of the paper's Related Work [12]:
// shard the stream, sketch each shard, merge the sketches.
//
// Group identity across shards is resolved by the α-ball test on
// representatives, which is exact for well-separated data (and within the
// usual Θ(1) factors of Theorem 3.1 otherwise): a group seen in both
// shards keeps shard a's representative, matching what processing a ++ b
// in one pass would do. Reservoir augmentation state (counts and picks)
// is merged with the correct weights.
func Merge(a, b *Sampler) (*Sampler, error) {
	if !mergeCompatible(a.opts, b.opts) {
		return nil, ErrMergeOptions
	}
	if err := checkCounts(a.n, b.n); err != nil {
		return nil, err
	}
	out, err := NewSampler(a.opts)
	if err != nil {
		return nil, err
	}
	out.r = a.r
	if b.r > out.r {
		out.r = b.r
	}
	out.n = a.n + b.n
	out.rehash = a.rehash + b.rehash
	out.index.reserve(len(a.entries) + len(b.entries))

	// Insert shard a's entries first (their representatives win ties),
	// then shard b's, each in stamp order; entries are re-classified at
	// the merged rate and groups present in both shards are coalesced.
	addAll := func(src *Sampler, offset int64) error {
		for _, e := range src.entries {
			if err := out.mergeEntry(e, offset); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addAll(a, 0); err != nil {
		return nil, err
	}
	if err := addAll(b, a.n); err != nil {
		return nil, err
	}
	for len(out.acc) > out.opts.acceptThreshold() {
		out.doubleR()
	}
	return out, nil
}

// MergeFrom merges sampler b (built with the SAME Options) into s in
// place: afterwards s is the sketch of s's stream followed by b's, and b
// is left intact. Unlike Merge it re-inserts only b's entries — s's own
// state is re-classified in place when b's rate is higher — so folding P
// shard sketches into an accumulator costs O(total entries), not
// O(P × total entries). This is the path the sharded engine's snapshot
// takes on every query.
func (s *Sampler) MergeFrom(b *Sampler) error {
	if !mergeCompatible(s.opts, b.opts) {
		return ErrMergeOptions
	}
	if err := checkCounts(s.n, b.n); err != nil {
		return err
	}
	// Raise s to the common (higher) rate first; doubleR re-classifies
	// and drops s's stored entries exactly as re-insertion would. The
	// raise doublings replay b's history rather than adding to it, so
	// they are excluded from the combined rehash diagnostic (keeping
	// Rehashes() consistent with what Merge reports).
	raised := 0
	for s.r < b.r {
		s.doubleR()
		raised++
	}
	s.index.reserve(len(s.entries) + len(b.entries))
	offset := s.n
	for _, e := range b.entries {
		if err := s.mergeEntry(e, offset); err != nil {
			return err
		}
	}
	s.n += b.n
	s.rehash += b.rehash - raised
	for len(s.acc) > s.opts.acceptThreshold() {
		s.doubleR()
	}
	return nil
}

// byStamp orders entries by their representatives' arrival stamps, for
// the window sampler's Split and merge. Entries with tied stamps take
// pdqsort's deterministic order, which the pinned sketch digests fix.
func byStamp(a, b *entry) int { return cmp.Compare(a.stamp, b.stamp) }

// checkCounts refuses to merge a sketch of b points after one of a: the
// merged sketch counts a+b points and stamps b's entries past a, so the
// sum must not overflow, or stamp order would not survive the merge.
func checkCounts(a, b int64) error {
	if b > math.MaxInt64-a {
		return fmt.Errorf("core: merging a sketch of %d points after one of %d overflows the point count", b, a)
	}
	return nil
}

// mergeCompatible reports whether two option sets describe the same
// sketch configuration, down to the grid a copy shares with its stack
// (Copy). The Space field is compared by instance identity (sameSpace).
func mergeCompatible(a, b Options) bool {
	sa, sb := a.Space, b.Space
	a.Space, b.Space = nil, nil
	return a == b && sameSpace(sa, sb)
}

// sameSpace reports whether two Space fields name literally the same
// bucketing: both nil (the seed-derived grid), or one instance, compared
// via reflection so that an uncomparable custom Space type cannot panic
// the comparison.
func sameSpace(a, b Space) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Kind() != reflect.Pointer || vb.Kind() != reflect.Pointer {
		return false
	}
	return va.Pointer() == vb.Pointer()
}

// mergeEntry inserts one source entry into the merged sketch: coalesce
// with an existing group if the representative falls within α of a kept
// representative, otherwise re-classify at the merged rate per
// Definition 2.2. Both sketches share the grid and hash (mergeCompatible),
// so the source's cell, adjacency and cached levels carry over; e itself
// is only read.
func (s *Sampler) mergeEntry(e *entry, stampOffset int64) error {
	if len(e.rep) != s.opts.Dim {
		return fmt.Errorf("core: merging entry of dimension %d into %d", len(e.rep), s.opts.Dim)
	}
	if prev := s.index.findGroup(e.rep, e.adj, s.spc); prev != nil {
		// Same group seen in both shards: keep the earlier representative,
		// merge the reservoir (pick one of the two picks with probability
		// proportional to the point counts).
		total := prev.count + e.count
		if s.opts.RandomRepresentative && total > 0 && s.rng.Int64N(total) >= prev.count {
			prev.pick = e.pick
		}
		prev.count = total
		return nil
	}
	c := entry{
		rep:     e.rep,
		cell:    e.cell,
		adj:     e.adj,
		cellLvl: e.cellLvl,
		adjLvl:  e.adjLvl,
		wit:     e.wit,
		stamp:   e.stamp + stampOffset,
		count:   e.count,
		pick:    e.pick,
	}
	if !c.classify(s.ls, s.r) {
		return nil // ignored at the merged rate
	}
	ne := s.newEntry()
	*ne = c
	s.store(ne)
	return nil
}
