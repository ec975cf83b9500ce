package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
)

// checkSampler returns an error unless s is consistent, the Sampler's
// counterpart of checkLevels: the entries are in stamp order, each
// stamped within [1, Processed()]; every entry is filed in the cell
// index, under its cell, and nothing else is; acc is the accepted entries
// in entries order; the space meter matches a recount; no entry on the
// free list is reachable from the entries, acc, the index or lastHit, and
// each is cleared; and no two representatives lie within α of each
// other, which holds for every sampler built from valid input. A
// use-after-free in the free list breaks one of these.
func checkSampler(s *Sampler) error {
	rr := s.opts.RandomRepresentative
	stored := make(map[*entry]bool, len(s.entries))
	var acc []*entry
	words := 0
	prev := int64(1)
	for _, e := range s.entries {
		if stored[e] {
			return fmt.Errorf("entry %v stored twice", e.rep)
		}
		stored[e] = true
		if e.stamp < prev || e.stamp > s.n {
			return fmt.Errorf("entry %v stamped %d after one stamped %d, of %d points processed", e.rep, e.stamp, prev, s.n)
		}
		prev = e.stamp
		if e.accepted {
			acc = append(acc, e)
		}
		words += e.words(rr, false)
	}
	if !slices.Equal(acc, s.acc) {
		return fmt.Errorf("acc holds %d entries, the accepted entries in entries order are %d", len(s.acc), len(acc))
	}
	if words != s.space.Live() {
		return fmt.Errorf("entries hold %d words, the meter %d", words, s.space.Live())
	}
	indexed := make(map[*entry]bool, len(s.entries))
	cells := 0
	for _, sl := range s.index.slots {
		if sl.e == nil {
			continue
		}
		cells++
		for _, e := range append([]*entry{sl.e}, s.index.more[sl.key]...) {
			if !stored[e] || indexed[e] {
				return fmt.Errorf("cell index holds entry %v once more than the entries", e.rep)
			}
			if e.cell != sl.key {
				return fmt.Errorf("entry %v filed under cell %x, its cell is %x", e.rep, sl.key, e.cell)
			}
			indexed[e] = true
		}
	}
	if len(indexed) != len(s.entries) || cells != s.index.n {
		return fmt.Errorf("cell index holds %d entries in %d cells (n=%d), the sampler %d entries",
			len(indexed), cells, s.index.n, len(s.entries))
	}
	free := make(map[*entry]bool, len(s.free))
	for _, e := range s.free {
		if free[e] {
			return fmt.Errorf("entry on the free list twice")
		}
		free[e] = true
		if stored[e] {
			return fmt.Errorf("free entry %v is stored", e.rep)
		}
		if e.rep != nil || e.adj != nil || e.pick != nil || e.wres != nil {
			return fmt.Errorf("free entry %v was not cleared", e.rep)
		}
	}
	if s.lastHit != nil && !stored[s.lastHit] {
		return fmt.Errorf("lastHit %v is not stored (free: %v)", s.lastHit.rep, free[s.lastHit])
	}
	for i, a := range s.entries {
		for _, b := range s.entries[i+1:] {
			if s.spc.SameGroup(a.rep, b.rep) {
				return fmt.Errorf("representatives %v and %v lie within α", a.rep, b.rep)
			}
		}
	}
	return nil
}

// mustCheck fails t when checkSampler finds s inconsistent after step.
func mustCheck(t *testing.T, s *Sampler, step string) {
	t.Helper()
	if err := checkSampler(s); err != nil {
		t.Fatalf("after %s: %v", step, err)
	}
}

// TestSamplerResetMatchesFresh feeds a sampler one stream, resets it and
// feeds it a second, and requires the state, bytes and answers — query
// RNG draws included — of a fresh sampler fed only the second; and the
// same for MergeFrom and MergeBinary into a reset sampler against a
// fresh one. The first stream raises the rate, so the reset sampler
// recycles entries from its free list; checkSampler runs after every
// step.
func TestSamplerResetMatchesFresh(t *testing.T) {
	for _, rr := range []bool{false, true} {
		t.Run(fmt.Sprintf("rr=%v", rr), func(t *testing.T) {
			opts := Options{Alpha: 1, Dim: 2, Seed: 29, Kappa: 2, StreamBound: 1 << 10, RandomRepresentative: rr}
			first, second := foldStream("separated", 6000, 31), foldStream("chained", 6000, 37)
			s, _ := NewSampler(opts)
			for i := 0; i < len(first); i += 500 {
				s.ProcessBatch(first[i : i+500])
				mustCheck(t, s, "a batch of the first stream")
			}
			if s.Rehashes() == 0 {
				t.Fatal("the first stream doubled no rate")
			}
			s.Query()
			s.Reset()
			mustCheck(t, s, "Reset")
			if len(s.entries) != 0 || s.R() != 1 || s.Processed() != 0 || s.PeakSpaceWords() != 0 || len(s.free) == 0 {
				t.Fatalf("Reset left %d entries, R=%d, n=%d, peak %d, %d free", len(s.entries), s.R(), s.Processed(), s.PeakSpaceWords(), len(s.free))
			}
			fresh, _ := NewSampler(opts)
			for i := 0; i < len(second); i += 500 {
				s.ProcessBatch(second[i : i+500])
				fresh.ProcessBatch(second[i : i+500])
				mustCheck(t, s, "a batch of the second stream")
			}
			if g, w := samplerState(t, s), samplerState(t, fresh); g != w {
				t.Fatalf("reset sampler differs from a fresh one:\n got %.300s\nwant %.300s", g, w)
			}

			// Merges into a reset receiver, as the engine's snapshot runs them.
			blobs := foldBlobs(t, opts, foldStream("separated", 8000, 41), 3)
			parts := make([]*Sampler, len(blobs))
			for i, blob := range blobs {
				parts[i], _ = UnmarshalSampler(blob)
			}
			for round := range 3 {
				s.Reset()
				fresh, _ := NewSampler(opts)
				for i, b := range parts {
					if err := s.MergeFrom(b); err != nil {
						t.Fatal(err)
					}
					mustCheck(t, s, fmt.Sprintf("round %d MergeFrom %d", round, i))
					mustCheck(t, b, fmt.Sprintf("round %d MergeFrom %d (source)", round, i))
					if err := fresh.MergeFrom(b); err != nil {
						t.Fatal(err)
					}
				}
				if g, w := samplerState(t, s), samplerState(t, fresh); g != w {
					t.Fatalf("round %d: MergeFrom into a reset sampler differs from a fresh one:\n got %.300s\nwant %.300s", round, g, w)
				}
			}
			s.Reset()
			fresh, _ = NewSampler(opts)
			for i, blob := range blobs {
				if err := s.MergeBinary(blob); err != nil {
					t.Fatal(err)
				}
				mustCheck(t, s, fmt.Sprintf("MergeBinary %d", i))
				if err := fresh.MergeBinary(blob); err != nil {
					t.Fatal(err)
				}
			}
			if g, w := samplerState(t, s), samplerState(t, fresh); g != w {
				t.Fatalf("MergeBinary into a reset sampler differs from a fresh one:\n got %.300s\nwant %.300s", g, w)
			}
		})
	}
}

// TestSamplerStampOrder pins the order the encoder and the merges rely
// on instead of sorting: after every operation that changes a sampler's
// entries they are in stamp order, each within [1, Processed()]
// (checkSampler), and the sampler's own bytes decode to a sampler that
// holds it too.
func TestSamplerStampOrder(t *testing.T) {
	for _, rr := range []bool{false, true} {
		t.Run(fmt.Sprintf("rr=%v", rr), func(t *testing.T) {
			opts := Options{Alpha: 1, Dim: 2, Seed: 61, Kappa: 2, StreamBound: 1 << 10, RandomRepresentative: rr}
			check := func(s *Sampler, step string) {
				t.Helper()
				mustCheck(t, s, step)
				blob, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				d, err := UnmarshalSampler(blob)
				if err != nil {
					t.Fatalf("after %s: the sampler's own bytes do not decode: %v", step, err)
				}
				mustCheck(t, d, step+", decoded")
			}
			stream := foldStream("separated", 6000, 67)
			s, _ := NewSampler(opts)
			for _, p := range stream[:100] {
				s.Process(p)
			}
			check(s, "Process")
			s.ProcessBatch(stream[100:3000])
			check(s, "ProcessBatch")
			if s.Rehashes() == 0 {
				t.Fatal("the stream doubled no rate")
			}
			other, _ := NewSampler(opts)
			other.ProcessBatch(stream[3000:])
			m, err := Merge(s, other)
			if err != nil {
				t.Fatal(err)
			}
			check(m, "Merge")
			if err := s.MergeFrom(other); err != nil {
				t.Fatal(err)
			}
			check(s, "MergeFrom")
			blob, err := other.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.MergeBinary(blob); err != nil {
				t.Fatal(err)
			}
			check(s, "MergeBinary")
			s.ProcessBatch(stream[:200])
			check(s, "ProcessBatch after the merges")
			parts, err := s.Partition(3, func(p geom.Point) int { return int(p[1]/10) % 3 })
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range parts {
				check(p, fmt.Sprintf("Partition %d", i))
			}
			s.Reset()
			check(s, "Reset")
			s.ProcessBatch(stream[:500])
			check(s, "ProcessBatch after Reset")
		})
	}
}

// TestSamplerOwnsStoredPoints: a sampler keeps nothing of a batch once it
// has processed it. Two samplers are fed the same batches; after each
// ProcessBatch the second one's batch coordinates are overwritten, and
// the two must still serialize and answer alike. Under
// RandomRepresentative the groups recur across batches, so replaced
// reservoir picks are covered too.
func TestSamplerOwnsStoredPoints(t *testing.T) {
	for _, rr := range []bool{false, true} {
		t.Run(fmt.Sprintf("rr=%v", rr), func(t *testing.T) {
			opts := Options{Alpha: 1, Dim: 2, Seed: 47, Kappa: 2, StreamBound: 1 << 10, RandomRepresentative: rr}
			a, _ := NewSampler(opts)
			b, _ := NewSampler(opts)
			stream := foldStream("separated", 4000, 53)
			for i := 0; i < len(stream); i += 200 {
				batch := make([]geom.Point, 200)
				slab := make([]float64, 2*len(batch))
				for j, p := range stream[i : i+200] {
					batch[j] = slab[2*j : 2*j+2 : 2*j+2]
					copy(batch[j], p)
				}
				a.ProcessBatch(stream[i : i+200])
				b.ProcessBatch(batch)
				for j := range slab {
					slab[j] = -1e9
				}
				mustCheck(t, b, "a batch")
			}
			if rr && a.Rehashes() == 0 {
				t.Fatal("the stream doubled no rate")
			}
			ab, _ := a.MarshalBinary()
			bb, _ := b.MarshalBinary()
			if !bytes.Equal(ab, bb) {
				t.Fatal("overwriting processed batches changed the serialized sketch")
			}
			if g, w := samplerState(t, b), samplerState(t, a); g != w {
				t.Fatalf("overwriting processed batches changed the answers:\n got %.300s\nwant %.300s", g, w)
			}
		})
	}
}
