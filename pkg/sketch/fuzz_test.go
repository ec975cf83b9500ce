package sketch

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/window"
)

// craftedL0 hand-encodes an L0 envelope in the l0s1 layout of
// docs/engine.md ("Wire format"), bypassing Options.normalize as a
// hostile peer would: alpha 1, the given dimension and grid side, R = 1
// and one accepted entry per point, which every hash function agrees
// with at R = 1.
func craftedL0(dim uint64, side float64, pts ...[]float64) []byte {
	f64 := func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	b := append(append([]byte(nil), envelopeMagic[:]...), envelopeVersion, byte(KindL0))
	b = append(b, "l0s1"...)
	b = f64(b, 1) // alpha
	b = binary.AppendUvarint(b, dim)
	b = append(b, 0x80, 0x08, 4, 1)            // stream bound 1<<10, kappa, K
	b = binary.LittleEndian.AppendUint64(b, 3) // seed
	b = append(b, 0, 0)                        // hash kind, flags
	b = f64(b, side)
	b = binary.LittleEndian.AppendUint64(b, 1)  // R
	b = binary.AppendVarint(b, int64(len(pts))) // points processed
	b = append(b, 0, 0)                         // rehashes, peak
	b = binary.AppendUvarint(b, uint64(len(pts)))
	for _, p := range pts {
		b = append(b, 1, 2, 2) // accepted; stamp 1, count 1 (zigzag varints)
		for _, v := range p {
			b = f64(b, v)
		}
	}
	return b
}

// craftedEnvelope is an envelope no constructor could have written, and
// the word its refusal must name.
type craftedEnvelope struct {
	name string
	blob []byte
	want string
}

func craftedEnvelopes() []craftedEnvelope {
	nan10 := make([]float64, 10)
	for i := range nan10 {
		nan10[i] = math.NaN()
	}
	return []craftedEnvelope{
		{"dim-2^61", craftedL0(1<<61, 0.5), "Dim"},
		{"dim-2^25", craftedL0(1<<25, 0.5), "Dim"},
		{"side-alpha/1000", craftedL0(2, 0.001, []float64{0.3, 0.7}), "GridSide"},
		{"nan-10d", craftedL0(10, 0.5, nan10), "non-finite"},
	}
}

// TestDeserializeRefusesCraftedEnvelopes pins the decoders' bounds. Each
// envelope declares options or coordinates that no constructor accepts
// and must be refused before work sized by them: a 2^61 dimension used
// to panic, a 2^25 one to allocate 256 MiB, and the fine grid and the NaN
// coordinates to cost 0.1–0.5 s of adjacency enumeration before decoding
// without error.
func TestDeserializeRefusesCraftedEnvelopes(t *testing.T) {
	for _, tc := range craftedEnvelopes() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Deserialize(tc.blob)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%d-byte envelope: error %v, want one naming %q", len(tc.blob), err, tc.want)
			}
		})
	}
}

// fuzzSeedSketches returns one small loaded sketch of every serializable
// Kind, l0 first; the f0 and windowf0 ones are stacks of copies on one
// grid.
func fuzzSeedSketches(tb testing.TB) []Sketch {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: 64, RandomRepresentative: true}
	win := window.Window{Kind: window.Time, W: 8}
	l0, err := NewL0(opts)
	if err != nil {
		tb.Fatal(err)
	}
	f0, err := NewF0(opts, 0.5, 3)
	if err != nil {
		tb.Fatal(err)
	}
	wl0, err := NewWindowL0(opts, win)
	if err != nil {
		tb.Fatal(err)
	}
	wf0, err := NewWindowF0(opts, win, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	pts, stamps := stampedTestStream(4, 2, 3)
	l0.ProcessBatch(pts)
	f0.ProcessBatch(pts)
	wl0.ProcessStampedBatch(pts, stamps)
	wf0.ProcessStampedBatch(pts, stamps)
	return []Sketch{l0, f0, wl0, wf0}
}

// FuzzDeserialize feeds arbitrary bytes to the envelope decoder, which
// takes network bytes on every daemon's POST /sketch and every gateway
// fold. No input may panic, and whatever decodes must re-serialize to an
// envelope that decodes to the same Kind.
func FuzzDeserialize(f *testing.F) {
	var l0Payload []byte
	for i, s := range fuzzSeedSketches(f) {
		blob, err := s.Serialize()
		if err != nil {
			f.Fatal(err)
		}
		if i == 0 {
			l0Payload = blob[envelopeHeaderLen:]
		}
		f.Add(blob)
	}
	// The baselines' retired kinds 3–7, each over an l0 payload.
	for k := Kind(3); k <= 7; k++ {
		f.Add(encodeEnvelope(k, l0Payload))
	}
	for _, tc := range craftedEnvelopes() {
		f.Add(tc.blob)
	}
	f.Add(readFixture(f, "envelope_v1_l0.bin"))
	f.Add(readFixture(f, "envelope_separate_grids_f0.bin"))
	f.Add(readFixture(f, "envelope_separate_grids_windowf0.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Deserialize(data)
		if err != nil {
			return
		}
		kind, _ := KindOf(data)
		blob, err := s.Serialize()
		if err != nil {
			t.Fatalf("decoded %v does not re-serialize: %v", kind, err)
		}
		if _, err := Deserialize(blob); err != nil {
			t.Fatalf("re-serialized %v does not decode: %v", kind, err)
		}
		if k, _ := KindOf(blob); k != kind {
			t.Fatalf("re-serialized kind %v, want %v", k, kind)
		}
	})
}
