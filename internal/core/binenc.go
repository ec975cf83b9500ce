package core

// Length-prefixed binary encoding helpers behind the samplers' wire
// formats. They write into one growing buffer and read with zero
// allocations beyond the decoded state itself, which is what makes the
// serving hot path (serialize on /sketch, deserialize on every gateway
// fan-out) cheap. Integers are varints, floats and seeds are fixed
// little-endian 8-byte words.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// errTruncated is the decode failure for inputs that end mid-field.
var errTruncated = errors.New("core: truncated binary sketch")

// binWriter accumulates the binary wire form of a sketch.
type binWriter struct {
	buf []byte
}

func (w *binWriter) u8(v byte)        { w.buf = append(w.buf, v) }
func (w *binWriter) u64(v uint64)     { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *binWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *binWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *binWriter) f64(v float64)    { w.u64(math.Float64bits(v)) }

// coords writes len(ps) floats with no length prefix — the count is
// implied by the sketch dimension.
func (w *binWriter) coords(ps []float64) {
	for _, v := range ps {
		w.f64(v)
	}
}

// binReader consumes the binary wire form of a sketch. The first
// malformed read latches err; subsequent reads return zero values, so
// decoders can parse a whole record and check err once.
type binReader struct {
	data []byte
	off  int
	err  error

	// slab backs the slices coords returns while it has room, so a
	// decoder allocates one array for its points instead of one per
	// point. Decoders size it by an entry count already checked against
	// the input (count), so it stays proportional to the bytes read.
	slab []float64
}

func (r *binReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *binReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.data) {
		r.fail(errTruncated)
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *binReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }

// coords reads n floats written by binWriter.coords, refusing
// non-finite values by the rule Process applies to points (checkFinite).
// The bound is checked in division form, so 8*n is never computed before
// validation and cannot overflow past the truncation check.
func (r *binReader) coords(n int) []float64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > (len(r.data)-r.off)/8 {
		r.fail(errTruncated)
		return nil
	}
	var out []float64
	if n <= len(r.slab) {
		out, r.slab = r.slab[:n:n], r.slab[n:]
	} else {
		out = make([]float64, n)
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off+8*i:]))
	}
	r.off += 8 * n
	if err := checkFinite(out); err != nil {
		r.fail(err)
		return nil
	}
	return out
}

// count reads a length prefix and sanity-checks it against the bytes
// that remain, with perItem the minimum encoded size of one item — a
// corrupt prefix fails here instead of provoking a huge allocation.
func (r *binReader) count(perItem int) (int, error) {
	n := r.uvarint()
	if r.err != nil {
		return 0, r.err
	}
	if perItem < 1 {
		perItem = 1
	}
	if n > uint64((len(r.data)-r.off)/perItem) {
		r.fail(fmt.Errorf("core: corrupt binary sketch: count %d exceeds remaining input", n))
		return 0, r.err
	}
	return int(n), nil
}
