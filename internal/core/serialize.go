package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/grid"
)

// ErrNotSerializable is wrapped by MarshalBinary when the sketch has no
// wire format (currently: sketches built with a custom Space, which is
// not part of the wire format and could not be re-derived on load).
var ErrNotSerializable = errors.New("core: not serializable")

// ErrRetiredFormat is wrapped by every decoder that is handed state in
// the retired gob wire format of envelope version 1: a version-1
// envelope, a gob payload under a current envelope, or a checkpoint
// holding either. Such state cannot be read; the upgrade path is to
// restore it with a build from before the retirement and checkpoint it
// again, which writes the binary format.
var ErrRetiredFormat = errors.New(`core: envelope version 1 (gob) sketch state is retired and cannot be read; ` +
	`compat policy (docs/engine.md "Wire format"): re-checkpoint it with a build from before the retirement`)

// samplerMagic heads the binary wire form of a Sampler (format 1).
const samplerMagic = "l0s1"

// trimMagic strips a binary payload's magic. The only payloads ever
// written without one are the gob payloads of envelope version 1, so a
// missing magic is reported as ErrRetiredFormat.
func trimMagic(data []byte, magic string) ([]byte, error) {
	rest, ok := bytes.CutPrefix(data, []byte(magic))
	if !ok {
		return nil, fmt.Errorf("core: payload lacks the %q magic: %w", magic, ErrRetiredFormat)
	}
	return rest, nil
}

// options writes the serializable subset of Options. Space is excluded
// by the callers' ErrNotSerializable guard.
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
	w.u8(flags)
	w.f64(o.GridSide)
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
	return o
}

// MarshalBinary serializes the sketch for checkpointing or shipping to
// another process, in the length-prefixed binary format (magic "l0s1");
// the counterpart is UnmarshalSampler. Only dynamic state is stored: the
// grid, hash function and RNG are derived from Options.Seed, so Options
// plus the entry list reconstructs the sketch. Sketches built with a
// custom Space cannot be serialized: the space is not part of the wire
// format and could not be re-derived on load.
func (s *Sampler) MarshalBinary() ([]byte, error) {
	if s.opts.Space != nil {
		return nil, fmt.Errorf("%w: sketch was built with a custom Space", ErrNotSerializable)
	}
	w := binWriter{buf: make([]byte, 0, len(samplerMagic)+64+len(s.entries)*(8*2*s.opts.Dim+16))}
	w.buf = append(w.buf, samplerMagic...)
	w.options(s.opts)
	w.u64(s.r)
	w.varint(s.n)
	w.uvarint(uint64(s.rehash))
	w.uvarint(uint64(s.space.Peak()))
	w.uvarint(uint64(len(s.entries)))
	for _, e := range s.entries {
		var flags byte
		if e.accepted {
			flags |= 1
		}
		if len(e.pick) > 0 {
			flags |= 2
		}
		w.u8(flags)
		w.varint(e.stamp)
		w.varint(e.count)
		w.coords(e.rep)
		if len(e.pick) > 0 {
			w.coords(e.pick)
		}
	}
	return w.buf, nil
}

// UnmarshalSampler reconstructs a Sampler from MarshalBinary output,
// decoding every entry straight into the sampler. The options are
// validated before anything sized by them is allocated, and each entry's
// accept/reject classification is re-validated against the re-derived
// hash per Definition 2.2 — accepted exactly when its cell is sampled,
// and a rejected entry only when some cell of adj(rep) is — so a blob
// from different options fails instead of mis-sampling. The levels that
// check computes stay cached on the entries. Points come from one slab
// sized by the checked entry count, adjacency lists from one slab of
// their total size (packAdj).
// The query RNG is re-derived from the seed, so a restored sketch gives
// statistically equivalent (not bit-identical) query randomness.
// Payloads without the binary magic fail with ErrRetiredFormat.
func UnmarshalSampler(data []byte) (*Sampler, error) {
	data, err := trimMagic(data, samplerMagic)
	if err != nil {
		return nil, err
	}
	r := binReader{data: data}
	opts := r.options()
	if r.err != nil {
		return nil, fmt.Errorf("core: decoding sketch: %w", r.err)
	}
	s, err := newSampler(opts, 0)
	if err != nil {
		return nil, fmt.Errorf("core: restoring sketch: %w", err)
	}
	s.r = r.u64()
	s.n = r.varint()
	s.rehash = int(r.uvarint())
	peak := int(r.uvarint())
	dim := s.opts.Dim
	n, err := r.count(1 + 1 + 1 + 8*dim)
	if err != nil {
		return nil, err
	}
	if s.r == 0 || s.r&(s.r-1) != 0 {
		return nil, fmt.Errorf("core: corrupt sketch: R=%d is not a power of two", s.r)
	}
	s.entries = make([]*entry, 0, n)
	s.acc = make([]*entry, 0, min(s.opts.acceptThreshold()+1, n))
	s.index.reserve(n)
	r.slab = make([]float64, 2*n*dim)    // rep and pick
	keys := make([]grid.CellKey, 0, 4*n) // grows when lists average more than 4 cells
	for range n {
		flags := r.u8()
		e := &entry{accepted: flags&1 != 0, stamp: r.varint(), count: r.varint(), rep: r.coords(dim)}
		if flags&2 != 0 {
			e.pick = r.coords(dim)
		}
		if r.err != nil {
			return nil, fmt.Errorf("core: decoding sketch: %w", r.err)
		}
		keys = decodeAdj(s.spc, e, keys)
		if accepted := e.accepted; !e.classify(s.ls, s.r) || e.accepted != accepted {
			return nil, fmt.Errorf("core: sketch inconsistent with options (entry %v)", e.rep)
		}
		s.store(e)
	}
	packAdj(s.entries, keys)
	if peak > s.space.peak {
		s.space.peak = peak
	}
	return s, nil
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
