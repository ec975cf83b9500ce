package baseline

// This file adds batched ingestion and sketch-union support to the
// baseline sketches, mirroring the core package's ProcessBatch/Merge
// surface so that every baseline can ride the unified pkg/sketch
// interface and the sharded engine. All Merge methods require both
// operands to have been built with the same parameters and seed (they
// must agree on the hash function for the union to be meaningful); only
// the structural parameters can be checked here.

import (
	"fmt"

	"repro/internal/geom"
)

// ProcessBatch feeds a batch of points.
func (s *KMV) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		s.ProcessKey(PointKey(p))
	}
}

// Reset empties the sketch, as NewKMV builds it, keeping its memory.
func (s *KMV) Reset() {
	s.vals = s.vals[:0]
	s.n = 0
}

// Merge unions another KMV of the same size (and seed) into s: the merged
// sketch holds the k smallest distinct hash values of the union.
func (s *KMV) Merge(o *KMV) error {
	if s.k != o.k {
		return fmt.Errorf("baseline: merging KMV sketches of different sizes (%d vs %d)", s.k, o.k)
	}
	merged := make([]uint64, 0, len(s.vals)+len(o.vals))
	i, j := 0, 0
	for i < len(s.vals) || j < len(o.vals) {
		var v uint64
		switch {
		case j == len(o.vals) || (i < len(s.vals) && s.vals[i] < o.vals[j]):
			v = s.vals[i]
			i++
		case i == len(s.vals) || o.vals[j] < s.vals[i]:
			v = o.vals[j]
			j++
		default: // equal: keep one
			v = s.vals[i]
			i, j = i+1, j+1
		}
		if len(merged) < s.k {
			merged = append(merged, v)
		}
	}
	s.vals = merged
	s.n += o.n
	return nil
}

// ProcessBatch feeds a batch of points.
func (f *FM) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		f.ProcessKey(PointKey(p))
	}
}

// Merge unions another FM counter (same seed) into f: the union's bitmap
// is the bitwise OR.
func (f *FM) Merge(o *FM) error {
	f.bitmap |= o.bitmap
	return nil
}

// Reset empties the counter, as NewFM builds it.
func (f *FM) Reset() { f.bitmap = 0 }

// ProcessBatch feeds a batch of points, hashing each point once and
// fanning the key out to every copy (Process already shares the key, so
// point-major order costs nothing extra here).
func (g *FMGroup) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		g.Process(p)
	}
}

// Reset empties every counter, as NewFMGroup builds them.
func (g *FMGroup) Reset() {
	for _, f := range g.copies {
		f.Reset()
	}
}

// Merge unions another FMGroup with the same copy count (and seed).
func (g *FMGroup) Merge(o *FMGroup) error {
	if len(g.copies) != len(o.copies) {
		return fmt.Errorf("baseline: merging FM groups of different sizes (%d vs %d)",
			len(g.copies), len(o.copies))
	}
	for i := range g.copies {
		g.copies[i].bitmap |= o.copies[i].bitmap
	}
	return nil
}

// ProcessBatch feeds a batch of points.
func (h *HyperLogLog) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		h.ProcessKey(PointKey(p))
	}
}

// Reset zeroes the registers, as NewHyperLogLog builds them.
func (h *HyperLogLog) Reset() { clear(h.regs) }

// Merge unions another HLL with the same register count (and seed): the
// union keeps the per-register maximum rank.
func (h *HyperLogLog) Merge(o *HyperLogLog) error {
	if len(h.regs) != len(o.regs) {
		return fmt.Errorf("baseline: merging HLLs of different sizes (%d vs %d)",
			len(h.regs), len(o.regs))
	}
	for i, r := range o.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	return nil
}

// ProcessBatch feeds a batch of points.
func (lc *LinearCounting) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		lc.ProcessKey(PointKey(p))
	}
}

// Reset clears the bitmap, as NewLinearCounting builds it.
func (lc *LinearCounting) Reset() { clear(lc.bits) }

// Merge unions another linear counter with the same bitmap size (and
// seed): the union's bitmap is the bitwise OR.
func (lc *LinearCounting) Merge(o *LinearCounting) error {
	if lc.m != o.m {
		return fmt.Errorf("baseline: merging linear counters of different sizes (%d vs %d)", lc.m, o.m)
	}
	for i, w := range o.bits {
		lc.bits[i] |= w
	}
	return nil
}

// ProcessBatch feeds a batch of items in order.
func (r *Reservoir) ProcessBatch(ps []geom.Point) {
	for _, p := range ps {
		r.Process(p)
	}
}

// SpaceWords returns the live sketch size in machine words, using the
// same word-count accounting as the core samplers (one word per stored
// hash value / register word / coordinate, plus counters).
func (s *KMV) SpaceWords() int { return len(s.vals) + 2 }

// SpaceWords returns the live sketch size in machine words.
func (g *FMGroup) SpaceWords() int { return len(g.copies) }

// SpaceWords returns the live sketch size in machine words (8 one-byte
// registers per word).
func (h *HyperLogLog) SpaceWords() int { return (len(h.regs) + 7) / 8 }

// SpaceWords returns the live sketch size in machine words.
func (lc *LinearCounting) SpaceWords() int { return len(lc.bits) }

// SpaceWords returns the live sketch size in machine words.
func (r *Reservoir) SpaceWords() int {
	w := 2
	for _, p := range r.items {
		w += len(p)
	}
	return w
}
