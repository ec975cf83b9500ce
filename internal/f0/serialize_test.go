package f0

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestUnmarshalMedianAllocatesByInput pins that decoding an f0 envelope
// allocates in proportion to its bytes, not to the options its copies
// declare. Every copy below is an empty sampler whose options declare an
// accept threshold of 16384; a decoder that reserved Sacc by that
// threshold would allocate about 32 KiB per copy of about 50 bytes.
func TestUnmarshalMedianAllocatesByInput(t *testing.T) {
	s, err := core.NewSampler(core.Options{Alpha: 1, Dim: 2, Kappa: 8192, StreamBound: 4}.Copy(1))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const copies = 1000
	blobs := make([][]byte, copies)
	for i := range blobs {
		blobs[i] = blob
	}
	env := binary.LittleEndian.AppendUint64([]byte(medianMagic), math.Float64bits(0.5))
	env = appendBlobs(env, blobs)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := UnmarshalMedian(env)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.copies) != copies {
		t.Fatalf("decoded %d copies, want %d", len(m.copies), copies)
	}
	// What remains per copy is the sampler's fixed state (hash, grid,
	// RNG, cell index): about 11 bytes per envelope byte on amd64.
	const maxRatio = 32
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(env))
	t.Logf("%d-byte envelope, %.1f bytes allocated per byte", len(env), ratio)
	if ratio > maxRatio {
		t.Fatalf("decoding allocated %.0f bytes per envelope byte, want at most %d", ratio, maxRatio)
	}
}
