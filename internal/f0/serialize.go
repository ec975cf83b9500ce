package f0

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// ErrSeparateGrids is wrapped by the decoders when a stack's copies do
// not share one grid (core.Options.Copy). Estimators wrote such state
// before their copies shared a grid, when every copy derived its own from
// its seed. It cannot be read: its copies would not merge with a current
// stack's, so it could neither join a fold nor restore into an engine
// (docs/engine.md "Wire format").
var ErrSeparateGrids = errors.New(`f0: the estimator's copies are on separate grids, as written before copies shared one; ` +
	`this state cannot be read (docs/engine.md "Wire format")`)

// medianMagic and windowEstimatorMagic head the binary wire forms of the
// estimator stacks (format 1). Payloads without them fail with
// core.ErrRetiredGob.
const (
	medianMagic          = "f0m1"
	windowEstimatorMagic = "f0w1"
)

// appendBlobs appends a uvarint count followed by length-prefixed blobs.
func appendBlobs(dst []byte, blobs [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(blobs)))
	for _, b := range blobs {
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// readBlobs reads the counterpart of appendBlobs, returning sub-slices
// of data (no copies). An empty list is corrupt: every stack has at
// least one copy.
func readBlobs(data []byte) ([][]byte, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 || n > uint64(len(data)) {
		return nil, fmt.Errorf("f0: truncated copy list")
	}
	if n == 0 {
		return nil, fmt.Errorf("f0: corrupt copy list: no copies")
	}
	data = data[sz:]
	out := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		l, sz := binary.Uvarint(data)
		if sz <= 0 || l > uint64(len(data)-sz) {
			return nil, fmt.Errorf("f0: truncated copy %d", i)
		}
		out = append(out, data[sz:sz+int(l)])
		data = data[sz+int(l):]
	}
	return out, nil
}

// MarshalBinary serializes the estimator stack for checkpointing, in the
// length-prefixed binary format (magic "f0m1"); the counterpart is
// UnmarshalMedian. The per-copy samplers carry their own options
// (including the derived seeds and the stack's grid seed), so only
// epsilon is stored alongside the copy blobs. Estimators built over a
// custom Space are not serializable (see core.Sampler.MarshalBinary).
func (m *Median) MarshalBinary() ([]byte, error) {
	blobs := make([][]byte, len(m.copies))
	for i, c := range m.copies {
		blob, err := c.s.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("f0: encoding copy %d: %w", i, err)
		}
		blobs[i] = blob
	}
	out := append([]byte(nil), medianMagic...)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m.copies[0].eps))
	return appendBlobs(out, blobs), nil
}

// MarshalBinary serializes the window-estimator stack for checkpointing,
// in the length-prefixed binary format (magic "f0w1"); the counterpart
// is UnmarshalWindowEstimator. The per-copy window samplers carry their
// own options and window, so the copy blobs are the whole state. Only
// time-based windows have a wire format (see
// core.WindowSampler.MarshalBinary).
func (we *WindowEstimator) MarshalBinary() ([]byte, error) {
	blobs := make([][]byte, len(we.copies))
	for i, c := range we.copies {
		blob, err := c.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("f0: encoding window copy %d: %w", i, err)
		}
		blobs[i] = blob
	}
	return appendBlobs(append([]byte(nil), windowEstimatorMagic...), blobs), nil
}

// UnmarshalWindowEstimator reconstructs a WindowEstimator from
// MarshalBinary output; every copy must share copy 0's window and grid
// (ErrSeparateGrids).
func UnmarshalWindowEstimator(data []byte) (*WindowEstimator, error) {
	data, ok := bytes.CutPrefix(data, []byte(windowEstimatorMagic))
	if !ok {
		return nil, fmt.Errorf("f0: payload lacks the %q magic: %w", windowEstimatorMagic, core.ErrRetiredGob)
	}
	blobs, err := readBlobs(data)
	if err != nil {
		return nil, fmt.Errorf("f0: decoding window estimator: %w", err)
	}
	we := &WindowEstimator{copies: make([]*core.WindowSampler, len(blobs))}
	for i, blob := range blobs {
		ws, err := core.UnmarshalWindowSampler(blob)
		if err != nil {
			return nil, fmt.Errorf("f0: decoding window copy %d: %w", i, err)
		}
		we.copies[i] = ws
		c0 := we.copies[0]
		if ws.Window() != c0.Window() {
			return nil, fmt.Errorf("f0: corrupt window estimator: copy %d window %v != copy 0 window %v",
				i, ws.Window(), c0.Window())
		}
		if !ws.Options().SharesGrid(c0.Options()) {
			return nil, fmt.Errorf("f0: decoding window copy %d: %w", i, ErrSeparateGrids)
		}
	}
	return we, nil
}

// UnmarshalMedian reconstructs a Median from MarshalBinary output; every
// copy must share copy 0's grid (ErrSeparateGrids).
func UnmarshalMedian(data []byte) (*Median, error) {
	data, ok := bytes.CutPrefix(data, []byte(medianMagic))
	if !ok {
		return nil, fmt.Errorf("f0: payload lacks the %q magic: %w", medianMagic, core.ErrRetiredGob)
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("f0: truncated median header")
	}
	eps := math.Float64frombits(binary.LittleEndian.Uint64(data))
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("f0: corrupt median: epsilon %g", eps)
	}
	blobs, err := readBlobs(data[8:])
	if err != nil {
		return nil, fmt.Errorf("f0: decoding median: %w", err)
	}
	m := &Median{copies: make([]*InfiniteEstimator, len(blobs))}
	for i, blob := range blobs {
		s, err := core.UnmarshalSampler(blob)
		if err != nil {
			return nil, fmt.Errorf("f0: decoding copy %d: %w", i, err)
		}
		m.copies[i] = &InfiniteEstimator{s: s, eps: eps}
		if !s.Options().SharesGrid(m.copies[0].s.Options()) {
			return nil, fmt.Errorf("f0: decoding copy %d: %w", i, ErrSeparateGrids)
		}
	}
	return m, nil
}
