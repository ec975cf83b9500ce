package core

// Robustness suite for the binary sampler wire format: crafted and
// truncated blobs must fail with an error, never panic or decode.

import (
	"testing"

	"repro/internal/geom"
)

// compatStream feeds n deterministic well-separated groups with some
// duplicates.
func compatStream(n int) []geom.Point {
	pts := make([]geom.Point, 0, 2*n)
	for i := 0; i < n; i++ {
		p := geom.Point{float64(i%32) * 8, float64(i/32) * 8}
		pts = append(pts, p, geom.Point{p[0] + 0.2, p[1] - 0.1})
	}
	return pts
}

// TestUnmarshalSamplerBinaryHugeDim pins that a crafted blob carrying an
// absurd dimension errors instead of panicking: 8*Dim must not overflow
// past the decoder's bounds checks into make().
func TestUnmarshalSamplerBinaryHugeDim(t *testing.T) {
	// Hand-encode a blob whose options carry a poisoned dimension,
	// bypassing normalize as an attacker would.
	w := binWriter{}
	w.buf = append(w.buf, samplerMagic...)
	w.options(Options{Alpha: 1, Dim: 1 << 61, StreamBound: 1 << 10, Kappa: 4, K: 1, Seed: 3, GridSide: 0.5})
	w.u64(1)     // R
	w.varint(1)  // n
	w.uvarint(0) // rehash
	w.uvarint(0) // peak
	w.uvarint(1) // one entry
	w.u8(0)      // flags
	w.varint(1)  // stamp
	w.varint(1)  // count
	w.f64(0)     // far too few coordinates for Dim=1<<61
	if _, err := UnmarshalSampler(w.buf); err == nil {
		t.Fatal("huge-dimension blob decoded without error")
	}
}

// TestUnmarshalSamplerBinaryTruncated pins that truncating a binary blob
// at any prefix errors instead of panicking or silently decoding.
func TestUnmarshalSamplerBinaryTruncated(t *testing.T) {
	opts := Options{Alpha: 1, Dim: 2, Seed: 41, StreamBound: 1 << 10}
	s, err := NewSampler(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.ProcessBatch(compatStream(50))
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSampler(blob); err != nil {
		t.Fatal(err)
	}
	for cut := len(blob) - 1; cut > len(samplerMagic); cut -= 7 {
		if _, err := UnmarshalSampler(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded without error", cut, len(blob))
		}
	}
}
