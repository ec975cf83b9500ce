package core

import (
	"fmt"
	"slices"

	"repro/internal/grid"
	"repro/internal/window"
)

// windowSamplerMagic heads the binary wire form of a WindowSampler
// (format 1).
const windowSamplerMagic = "l0w1"

// MarshalBinary serializes the window sampler for checkpointing or
// shipping, in the length-prefixed binary format (magic "l0w1"); the
// counterpart is UnmarshalWindowSampler. As with Sampler, only dynamic
// state is stored, and the level structure is derived from the window
// width, so the per-level entry lists are the whole expiry state. Only
// time-based windows have a wire format: a sequence window's expiry
// state is keyed to one stream's arrival order and cannot be restored
// into any other context (see docs/engine.md "Limitations"). Samplers
// built with a custom Space are not serializable either.
func (ws *WindowSampler) MarshalBinary() ([]byte, error) {
	if ws.win.Kind != window.Time {
		return nil, fmt.Errorf("%w: sequence-window samplers have no wire format (see docs/engine.md \"Limitations\")", ErrNotSerializable)
	}
	if ws.opts.Space != nil {
		return nil, fmt.Errorf("%w: sketch was built with a custom Space", ErrNotSerializable)
	}
	w := binWriter{buf: make([]byte, 0, 1024)}
	w.buf = append(w.buf, windowSamplerMagic...)
	w.options(ws.opts)
	w.u8(byte(ws.win.Kind))
	w.varint(ws.win.W)
	w.varint(ws.n)
	w.varint(ws.now)
	if len(ws.latest) > 0 {
		w.u8(1)
		w.coords(ws.latest)
	} else {
		w.u8(0)
	}
	w.varint(ws.latestStamp)
	w.uvarint(uint64(ws.overflowErrors))
	w.uvarint(uint64(ws.splitFailures))
	w.uvarint(uint64(ws.space.Peak()))
	w.uvarint(uint64(len(ws.levels)))
	for _, lv := range ws.levels {
		w.uvarint(uint64(len(lv.order)))
		for _, e := range lv.order {
			var flags byte
			if e.accepted {
				flags |= 1
			}
			if len(e.pick) > 0 {
				flags |= 2
			}
			if len(e.last) > 0 {
				flags |= 4
			}
			w.u8(flags)
			w.varint(e.stamp)
			w.varint(e.count)
			w.coords(e.rep)
			if len(e.pick) > 0 {
				w.coords(e.pick)
			}
			if len(e.last) > 0 {
				w.coords(e.last)
			}
			w.varint(e.lastStamp)
			w.uvarint(uint64(len(e.wres)))
			for _, wp := range e.wres {
				w.varint(wp.stamp)
				w.u64(wp.prio)
				w.coords(wp.p)
			}
		}
	}
	return w.buf, nil
}

// UnmarshalWindowSampler reconstructs a WindowSampler from MarshalBinary
// output, decoding every entry straight into its level; each level's
// entries, adjacency lists, points and, under RandomRepresentative,
// skyline picks are carved from slabs, so the decode allocates per
// level, not per entry. The options and
// window are validated before anything sized by them is allocated, the
// level count must match the window width, and each entry's
// classification is re-validated against the re-derived hash at its
// level's rate. Grid, hash function and query RNG are re-derived from the
// serialized seed, so the restored sampler ingests identically to the
// original; query randomness is statistically equivalent rather than
// bit-identical, matching UnmarshalSampler. Payloads without the binary
// magic fail with ErrRetiredGob.
func UnmarshalWindowSampler(data []byte) (*WindowSampler, error) {
	data, err := trimMagic(data, windowSamplerMagic)
	if err != nil {
		return nil, err
	}
	r := binReader{data: data}
	opts := r.options()
	win := window.Window{Kind: window.Kind(r.u8()), W: r.varint()}
	if r.err != nil {
		return nil, fmt.Errorf("core: decoding window sketch: %w", r.err)
	}
	if win.Kind != window.Time {
		return nil, fmt.Errorf("core: corrupt window sketch: kind %v is not serializable", win.Kind)
	}
	ws, err := NewWindowSampler(opts, win)
	if err != nil {
		return nil, fmt.Errorf("core: restoring window sketch: %w", err)
	}
	dim := ws.opts.Dim
	ws.n = r.varint()
	ws.now = r.varint()
	if r.u8() != 0 {
		ws.latest = r.coords(dim)
	}
	ws.latestStamp = r.varint()
	ws.overflowErrors = int(r.uvarint())
	ws.splitFailures = int(r.uvarint())
	peak := int(r.uvarint())
	levels, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if levels != len(ws.levels) {
		return nil, fmt.Errorf("core: corrupt window sketch: %d levels for window width %d (want %d)",
			levels, win.W, len(ws.levels))
	}
	var keys []grid.CellKey // one level's adjacency lists, reused across levels
	for l, lv := range ws.levels {
		lv.now = ws.now
		n, err := r.count(1 + 1 + 1 + 8*dim)
		if err != nil {
			return nil, err
		}
		slab := make([]entry, n)
		es := make([]*entry, 0, n)
		keys = slices.Grow(keys[:0], 4*n) // grows when lists average more than 4 cells
		r.slab = make([]float64, 3*n*dim) // rep, pick and last; skyline points use what is left
		var picks []windowPick            // the unused tail of the level's skyline slab
		lv.index.reserve(n)
		for i := range n {
			flags := r.u8()
			e := &slab[i]
			*e = entry{accepted: flags&1 != 0, stamp: r.varint(), count: r.varint(), rep: r.coords(dim)}
			if flags&2 != 0 {
				e.pick = r.coords(dim)
			}
			if flags&4 != 0 {
				e.last = r.coords(dim)
			}
			e.lastStamp = r.varint()
			wn, err := r.count(1 + 8 + 8*dim)
			if err != nil {
				return nil, err
			}
			if wn > 0 {
				// A skyline and its points come from slabs of at least
				// one item per entry of the level, so a level of short
				// skylines allocates a few of each.
				if len(picks) < wn {
					picks = make([]windowPick, max(wn, n))
				}
				e.wres, picks = picks[:wn:wn], picks[wn:]
				if len(r.slab) < wn*dim {
					r.slab = make([]float64, max(wn, n)*dim)
				}
				for j := range e.wres {
					e.wres[j] = windowPick{stamp: r.varint(), prio: r.u64(), p: r.coords(dim)}
				}
			}
			if r.err != nil {
				return nil, fmt.Errorf("core: decoding window sketch: %w", r.err)
			}
			keys = decodeAdj(ws.spc, e, keys)
			if accepted := e.accepted; !e.classify(ws.ls, lv.r) || e.accepted != accepted {
				return nil, fmt.Errorf("core: window sketch inconsistent with options (level %d entry %v)", l, e.rep)
			}
			es = append(es, e)
		}
		packAdj(es, keys)
		// MarshalBinary writes each level in expiry order, so this sort
		// leaves its output as it is. A checkpoint written before late
		// points kept that order sorted, or a crafted blob, may hold an
		// unsorted level: sorting decodes it in O(n log n), where filing
		// each entry by insert's search would cost O(n²) in moves.
		slices.SortStableFunc(es, byLastStamp)
		lv.order = es
		for _, e := range es {
			lv.file(e)
		}
		lv.Expire(ws.now)
	}
	ws.trackSpace()
	if peak > ws.space.peak {
		ws.space.peak = peak
	}
	return ws, nil
}
