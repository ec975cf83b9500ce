package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/window"
)

// ErrWindowMerge is returned by WindowSampler.MergeFrom for sequence-based
// windows: sequence windows expire by the global arrival index, and the
// per-stream indices of two samplers do not compose into a meaningful
// union. Time-based windows expire by timestamp — a property of the point,
// not of the stream it arrived on — so only those merge. See
// docs/engine.md ("Limitations").
var ErrWindowMerge = errors.New("core: sequence-window samplers cannot be merged (arrival indices do not compose; see docs/engine.md \"Limitations\")")

// mergedEntry is one live group of the union during a merge: its folded
// entry plus the level it was stored at (the higher of the two when both
// sides tracked it).
type mergedEntry struct {
	e     *entry
	level int
}

// MergeFrom merges window sampler b (built with the SAME Options and the
// same time-based Window) into ws in place: afterwards ws is the sampler
// of the union of the two streams, with the window's right edge at
// max(ws.Now(), b.Now()). b is left intact.
//
// Time windows are partitionable exactly because expiry is per-point (the
// paper's observation that sequence and time windows differ only in "the
// definitions of the expiration of a point"): a point's timestamp decides
// its expiry regardless of which shard observed it. The fold first
// collects the union's live groups, coalescing groups tracked on both
// sides (earliest representative wins, freshest latest-point stamp
// survives, reservoir counts add), then rebuilds the level structure:
//
//   - If the union already satisfies the per-level size invariant
//     (|Sacc_ℓ| ≤ threshold at every level), every group keeps its level —
//     this makes Partition followed by MergeFrom an exact round trip, the
//     property engine.Restore's re-sharding relies on.
//   - Otherwise the union's groups are replayed through the normal
//     registration path in expiry order — each enters at level 0 and the
//     Split/Merge cascade rebuilds the hierarchy — so the merged level
//     structure follows the same dynamics as a sequential sampler and the
//     Section 5 max-level observable stays calibrated.
//
// Sequence windows return ErrWindowMerge; mismatched options or windows
// return ErrMergeOptions.
func (ws *WindowSampler) MergeFrom(b *WindowSampler) error {
	if ws == b {
		return fmt.Errorf("core: cannot merge a window sampler into itself")
	}
	if ws.win != b.win || !mergeCompatible(ws.opts, b.opts) {
		return ErrMergeOptions
	}
	if ws.win.Kind != window.Time {
		return ErrWindowMerge
	}

	now := ws.now
	if b.now > now {
		now = b.now
	}
	ws.now = now
	ws.n += b.n
	ws.overflowErrors += b.overflowErrors
	ws.splitFailures += b.splitFailures
	if b.latestStamp > ws.latestStamp || ws.latest == nil {
		ws.latest, ws.latestStamp = b.latest, b.latestStamp
	}

	kept := ws.collectUnion(b, now)

	// Tear the levels down and rebuild (Reset keeps each level's rate).
	for _, lv := range ws.levels {
		lv.Reset()
		lv.now = now
	}
	threshold := ws.opts.acceptThreshold()
	counts := make([]int, len(ws.levels))
	valid := true
	for _, m := range kept {
		if m.e.accepted {
			counts[m.level]++
			if counts[m.level] > threshold {
				valid = false
			}
		}
	}
	// Insert in ascending latest-stamp order either way, so that each
	// entry is filed at the back of its level's expiry order.
	slices.SortFunc(kept, func(a, b mergedEntry) int { return cmp.Compare(a.e.lastStamp, b.e.lastStamp) })
	if valid {
		for _, m := range kept {
			ws.levels[m.level].insert(m.e)
		}
	} else {
		for _, m := range kept {
			m.e.accepted = true // level 0 samples every cell (R = 1)
			ws.levels[0].insert(m.e)
			ws.rebalance(0)
		}
	}
	ws.trackSpace()
	return nil
}

// collectUnion gathers the live groups of ws and b against the merged
// clock, coalescing groups tracked on both sides. ws's levels still hold
// their entries when it returns (the caller resets them); b is never
// modified — its live entries are cloned, into one slab. Both samplers
// share the grid and hash (mergeCompatible), so every entry keeps its
// cell, adjacency and cached levels.
func (ws *WindowSampler) collectUnion(b *WindowSampler, now int64) []mergedEntry {
	// Each level is in lastStamp order, so its live entries are a suffix.
	n, live := 0, make([][]*entry, len(b.levels))
	for _, lv := range ws.levels {
		lv.Expire(now)
		n += len(lv.order)
	}
	for l, lv := range b.levels {
		i := 0
		for i < len(lv.order) && ws.win.Expired(lv.order[i].lastStamp, now) {
			i++
		}
		live[l] = lv.order[i:]
		n += len(live[l])
	}
	all := make([]mergedEntry, 0, n)
	for l, lv := range ws.levels {
		for _, e := range lv.order {
			all = append(all, mergedEntry{e: e, level: l})
		}
	}
	slab := make([]entry, n-len(all))
	for l, es := range live {
		for _, e := range es {
			c := &slab[0]
			slab = slab[1:]
			cloneInto(c, e)
			all = append(all, mergedEntry{e: c, level: l})
		}
	}

	// Dedup in representative-arrival order, so a group seen on both sides
	// keeps the earlier representative (what one pass over the interleaved
	// streams would have stored).
	slices.SortFunc(all, func(a, b mergedEntry) int { return byStamp(a.e, b.e) })
	var idx cellIndex
	idx.reserve(len(all))
	keptAt := make(map[*entry]int, len(all)) // entry → index in kept
	kept := make([]mergedEntry, 0, len(all))
	expired := func(stamp int64) bool { return ws.win.Expired(stamp, now) }
	for _, m := range all {
		e := m.e
		if prev := idx.findGroup(e.rep, e.adj, ws.spc); prev != nil {
			if e.lastStamp > prev.lastStamp {
				prev.last, prev.lastStamp = e.last, e.lastStamp
			}
			total := prev.count + e.count
			if ws.opts.RandomRepresentative && total > 0 && ws.rng.Int64N(total) >= prev.count {
				prev.pick = e.pick
			}
			prev.count = total
			prev.wres = mergeWindowPicks(prev.wres, e.wres, expired)
			if ki := keptAt[prev]; m.level > kept[ki].level {
				kept[ki].level = m.level // the more-promoted history wins
			}
			continue
		}
		idx.add(e)
		keptAt[e] = len(kept)
		kept = append(kept, m)
	}

	// Re-classify each group at its level's rate (Definition 2.2; the
	// grids and hashes are shared, so this is a no-op except for coalesced
	// groups whose level changed). A group whose neighbourhood is
	// unsampled at its level demotes to the nearest level that can
	// represent it — level 0 (R = 1) always can.
	for i := range kept {
		e := kept[i].e
		for l := kept[i].level; ; l-- {
			if e.classify(ws.ls, ws.levels[l].r) || l == 0 {
				kept[i].level = l
				break
			}
		}
	}
	return kept
}

// mergeWindowPicks merges two per-group window reservoirs (priority
// skylines, both stamp-ascending) into a fresh skyline, dropping expired
// items. The result preserves the reservoir property: the front is the
// maximum-priority non-expired point over the union.
func mergeWindowPicks(a, b []windowPick, expired func(stamp int64) bool) []windowPick {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]windowPick, 0, len(a)+len(b))
	push := func(wp windowPick) {
		if expired(wp.stamp) {
			return
		}
		for len(out) > 0 && out[len(out)-1].prio <= wp.prio {
			out = out[:len(out)-1]
		}
		out = append(out, wp)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].stamp <= b[j].stamp {
			push(a[i])
			i++
		} else {
			push(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(b); j++ {
		push(b[j])
	}
	return out
}
