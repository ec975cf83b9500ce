package sketch

// Self-describing serialization. Every serializable adapter's Serialize
// wraps its family payload in a small versioned envelope — a magic tag, a
// format version, and a Kind byte — so that a checkpoint blob can be
// restored without knowing in advance which sketch family produced it:
// Deserialize dispatches on the Kind. internal/engine builds its
// checkpoint/restore path on exactly this property.

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/f0"
)

// Kind identifies a serializable sketch family inside the envelope.
type Kind uint8

// The serializable sketch families: the four α-aware ones. KindInvalid
// is never written. Values 3–7 must stay unassigned: they tagged the
// duplicate-blind baselines, which have no wire format, and Deserialize
// refuses them as unknown kinds. Sequence-window sketches have no Kind
// because they have no wire format (time-window sketches serialize as
// KindWindowL0/KindWindowF0).
const (
	KindInvalid  Kind = 0
	KindL0       Kind = 1
	KindF0       Kind = 2
	KindWindowL0 Kind = 8
	KindWindowF0 Kind = 9
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindL0:
		return "l0"
	case KindF0:
		return "f0"
	case KindWindowL0:
		return "windowl0"
	case KindWindowF0:
		return "windowf0"
	default:
		return fmt.Sprintf("sketch.Kind(%d)", int(k))
	}
}

// envelopeVersion is the serialization format version: payloads use the
// length-prefixed binary formats of internal/core and internal/f0.
// Version 1, whose payloads were gob, is retired: decodeEnvelope refuses
// it with core.ErrRetiredGob (see docs/engine.md "Wire format").
const envelopeVersion = 2

// envelopeMagic tags serialized sketches so that foreign blobs fail fast
// with a clear error instead of a payload decode failure.
var envelopeMagic = [4]byte{'s', 'k', 'c', 'h'}

// envelopeHeaderLen is magic + version byte + kind byte.
const envelopeHeaderLen = len(envelopeMagic) + 2

// encodeEnvelope prefixes payload with the envelope header.
func encodeEnvelope(k Kind, payload []byte) []byte {
	out := make([]byte, 0, envelopeHeaderLen+len(payload))
	out = append(out, envelopeMagic[:]...)
	out = append(out, envelopeVersion, byte(k))
	return append(out, payload...)
}

// decodeEnvelope validates the header and returns the kind and payload.
func decodeEnvelope(data []byte) (Kind, []byte, error) {
	if len(data) < envelopeHeaderLen {
		return KindInvalid, nil, fmt.Errorf("sketch: truncated envelope (%d bytes)", len(data))
	}
	if string(data[:4]) != string(envelopeMagic[:]) {
		return KindInvalid, nil, fmt.Errorf("sketch: not a serialized sketch (bad magic)")
	}
	switch v := data[4]; v {
	case envelopeVersion:
	case 1:
		return KindInvalid, nil, core.ErrRetiredGob
	default:
		return KindInvalid, nil, fmt.Errorf("sketch: unsupported format version %d (want %d)", v, envelopeVersion)
	}
	return Kind(data[5]), data[envelopeHeaderLen:], nil
}

// KindOf peeks at a serialized sketch and reports its family without
// decoding the payload.
func KindOf(data []byte) (Kind, error) {
	k, _, err := decodeEnvelope(data)
	return k, err
}

// Deserialize reconstructs any serialized sketch from its Serialize
// output, dispatching on the envelope's Kind. The restored sketch answers
// queries from the checkpointed state and keeps ingesting consistently
// (hash functions and grids are re-derived from the serialized seeds).
// Retired state — version-1 state, including a gob payload under a
// current envelope, and the l0s1 sampler payload — fails with an error
// wrapping core.ErrRetiredFormat; a kind with no decoder, such as a
// retired baseline kind, fails before its payload is read.
func Deserialize(data []byte) (Sketch, error) {
	k, payload, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	switch k {
	case KindL0:
		s, err := core.UnmarshalSampler(payload)
		if err != nil {
			return nil, err
		}
		return &L0{s: s}, nil
	case KindF0:
		m, err := f0.UnmarshalMedian(payload)
		if err != nil {
			return nil, err
		}
		return &F0{m: m}, nil
	case KindWindowL0:
		ws, err := core.UnmarshalWindowSampler(payload)
		if err != nil {
			return nil, err
		}
		return &WindowL0{ws: ws}, nil
	case KindWindowF0:
		we, err := f0.UnmarshalWindowEstimator(payload)
		if err != nil {
			return nil, err
		}
		return &WindowF0{we: we}, nil
	default:
		return nil, fmt.Errorf("sketch: unknown sketch kind %d", int(k))
	}
}

// ErrCorrupt is wrapped by MergeSerialized when the blob does not
// decode, which tells a fold's caller a bad blob from a well-formed
// sketch that dst refuses to merge.
var ErrCorrupt = errors.New("sketch: blob does not decode")

// MergeSerialized folds a serialized sketch into dst, with the answers
// of Deserialize followed by dst.Merge. An l0 blob folded into an *L0 is
// decoded straight into it (core.Sampler.MergeBinary), without building
// the blob's sketch; every other pair takes Deserialize and Merge, so a
// fold has one path for every family. A blob that does not decode fails
// with ErrCorrupt and leaves dst unchanged.
func MergeSerialized(dst Mergeable, blob []byte) error {
	if l, ok := dst.(*L0); ok {
		if k, payload, err := decodeEnvelope(blob); err == nil && k == KindL0 {
			err := l.s.MergeBinary(payload)
			if err != nil && !errors.Is(err, core.ErrMergeOptions) {
				return fmt.Errorf("%w: %w", ErrCorrupt, err)
			}
			return err
		}
	}
	sk, err := Deserialize(blob)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return dst.Merge(sk)
}
