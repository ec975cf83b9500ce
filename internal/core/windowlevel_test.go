package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// entriesByStamp returns the stored entries sorted by representative
// arrival stamp, as split sorts them.
func (fw *FixedWindow) entriesByStamp() []*entry {
	out := slices.Clone(fw.order)
	slices.SortFunc(out, byStamp)
	return out
}

// checkLevels returns an error unless every level of ws is consistent:
// its order is sorted by lastStamp, it holds exactly the entries its
// cell index holds, its accept count and space words match a recount,
// and none of its entries is expired at the level's clock.
func checkLevels(ws *WindowSampler) error {
	for l, lv := range ws.levels {
		inOrder := make(map[*entry]bool, len(lv.order))
		acc, words := 0, 0
		for i, e := range lv.order {
			if i > 0 && e.lastStamp < lv.order[i-1].lastStamp {
				return fmt.Errorf("level %d: lastStamp %d at %d after %d", l, e.lastStamp, i, lv.order[i-1].lastStamp)
			}
			if inOrder[e] {
				return fmt.Errorf("level %d: entry %v twice in the order", l, e.rep)
			}
			inOrder[e] = true
			if e.accepted {
				acc++
			}
			words += e.words(ws.opts.RandomRepresentative, true)
			if ws.win.Expired(e.lastStamp, lv.now) {
				return fmt.Errorf("level %d: entry stamped %d expired at %d", l, e.lastStamp, lv.now)
			}
		}
		indexed := make(map[*entry]bool, len(lv.order))
		for _, s := range lv.index.slots {
			if s.e == nil {
				continue
			}
			for _, e := range append([]*entry{s.e}, lv.index.more[s.key]...) {
				if !inOrder[e] || indexed[e] {
					return fmt.Errorf("level %d: cell index holds entry %v once more than the order", l, e.rep)
				}
				indexed[e] = true
			}
		}
		if len(indexed) != len(lv.order) {
			return fmt.Errorf("level %d: cell index holds %d entries, the order %d", l, len(indexed), len(lv.order))
		}
		if acc != lv.numAcc {
			return fmt.Errorf("level %d: %d accepted entries, numAcc %d", l, acc, lv.numAcc)
		}
		if words != lv.space.Live() {
			return fmt.Errorf("level %d: entries hold %d words, the meter %d", l, words, lv.space.Live())
		}
	}
	return nil
}

// FuzzWindowMergeFrom decodes arbitrary bytes as a window sampler and
// folds it into a time-window sampler holding a stamped stream with late
// points. No input may panic, and the levels must pass checkLevels after
// every decode and merge that succeeds. The seeds are a valid blob, the
// same sampler with a level written in descending lastStamp order, and a
// truncated blob.
func FuzzWindowMergeFrom(f *testing.F) {
	opts := Options{Alpha: 1, Dim: 2, Seed: 31, Kappa: 2, StreamBound: 1 << 8}
	win := timeWin(150)
	stream := func(ws *WindowSampler, seed uint64) {
		src := newLateStream(seed)
		for range 60 {
			pts, stamp, _ := src.next()
			ws.ProcessStampedBatch(pts[:12], slices.Repeat([]int64{stamp}, 12))
		}
	}
	src, err := NewWindowSampler(opts, win)
	if err != nil {
		f.Fatal(err)
	}
	stream(src, 7)
	blob, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	lv := src.levels[0]
	if len(lv.order) < 2 {
		f.Fatalf("level 0 holds %d entries, want ≥ 2", len(lv.order))
	}
	slices.Reverse(lv.order)
	desc, err := src.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(desc)
	f.Add(blob[:len(blob)*2/3])

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalWindowSampler(data)
		if err != nil {
			return
		}
		if err := checkLevels(b); err != nil {
			t.Fatalf("decoded: %v", err)
		}
		ws, err := NewWindowSampler(opts, win)
		if err != nil {
			t.Fatal(err)
		}
		stream(ws, 8)
		if err := ws.MergeFrom(b); err != nil {
			if !errors.Is(err, ErrMergeOptions) {
				t.Fatalf("merge: %v", err)
			}
			return
		}
		if err := checkLevels(ws); err != nil {
			t.Fatalf("merged: %v", err)
		}
		if err := checkLevels(b); err != nil {
			t.Fatalf("merged-from: %v", err)
		}
	})
}
