package sketch

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/window"
)

// roundTrip serializes s and restores it via the family-agnostic
// Deserialize, checking the envelope self-describes as wantKind.
func roundTrip(t *testing.T, s Sketch, wantKind Kind) Sketch {
	t.Helper()
	blob, err := s.Serialize()
	if err != nil {
		t.Fatalf("%v serialize: %v", wantKind, err)
	}
	k, err := KindOf(blob)
	if err != nil {
		t.Fatalf("%v kind: %v", wantKind, err)
	}
	if k != wantKind {
		t.Fatalf("envelope kind %v, want %v", k, wantKind)
	}
	restored, err := Deserialize(blob)
	if err != nil {
		t.Fatalf("%v deserialize: %v", wantKind, err)
	}
	return restored
}

// estimateOf queries s and returns the estimate, failing the test on error.
func estimateOf(t *testing.T, s Sketch) float64 {
	t.Helper()
	res, err := s.Query()
	if err != nil {
		t.Fatal(err)
	}
	return res.Estimate
}

// TestSerializeRoundTripAllAdapters checkpoints every serializable
// infinite-window adapter mid-stream, restores it, and requires (a) the
// restored estimate to equal the original's exactly and (b) processing
// the identical stream suffix to keep original and restored sketches in
// lockstep.
func TestSerializeRoundTripAllAdapters(t *testing.T) {
	pts := testStream(150, 4, 8)
	half := len(pts) / 2
	opts := testOpts(len(pts))

	cases := []struct {
		name string
		kind Kind
		mk   func(t *testing.T) Sketch
	}{
		{"L0", KindL0, func(t *testing.T) Sketch {
			s, err := NewL0(opts)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"F0", KindF0, func(t *testing.T) Sketch {
			s, err := NewF0(opts, 0.25, 5)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk(t)
			s.ProcessBatch(pts[:half])
			restored := roundTrip(t, s, tc.kind)
			if got, want := estimateOf(t, restored), estimateOf(t, s); got != want {
				t.Fatalf("restored estimate %g != original %g", got, want)
			}
			// The restored sketch must keep ingesting identically: hash
			// functions and grids are re-derived from the serialized seeds.
			s.ProcessBatch(pts[half:])
			restored.ProcessBatch(pts[half:])
			if got, want := estimateOf(t, restored), estimateOf(t, s); got != want {
				t.Fatalf("post-restore ingestion diverged: %g != %g", got, want)
			}
			if got, want := restored.Space(), s.Space(); got != want {
				t.Fatalf("post-restore space %d != %d", got, want)
			}
		})
	}
}

// stampedTestStream builds a stamped stream with expirations: each point
// of testStream gets its arrival index as timestamp, so a time window of
// width w drops everything older than the last w arrivals.
func stampedTestStream(numGroups, dup int, seed uint64) ([]geom.Point, []int64) {
	pts := testStream(numGroups, dup, seed)
	stamps := make([]int64, len(pts))
	for i := range stamps {
		stamps[i] = int64(i + 1)
	}
	return pts, stamps
}

// TestSerializeRoundTripWindowSketches checkpoints the time-window
// sketches mid-stream — expiry stamps, level structure, clock and all —
// restores them via the family-agnostic Deserialize, and requires the
// restored sketch to answer identically and to keep ingesting the
// identical stamped suffix in lockstep with the original.
func TestSerializeRoundTripWindowSketches(t *testing.T) {
	pts, stamps := stampedTestStream(120, 5, 13)
	half := len(pts) / 2
	win := window.Window{Kind: window.Time, W: 200}

	t.Run("WindowL0", func(t *testing.T) {
		s, err := NewWindowL0(testOpts(len(pts)), win)
		if err != nil {
			t.Fatal(err)
		}
		s.ProcessStampedBatch(pts[:half], stamps[:half])
		restored := roundTrip(t, s, KindWindowL0).(*WindowL0)
		lockstepWindowL0(t, s, restored, "restore")
		s.ProcessStampedBatch(pts[half:], stamps[half:])
		restored.ProcessStampedBatch(pts[half:], stamps[half:])
		lockstepWindowL0(t, s, restored, "post-restore ingestion")
		if res, err := restored.Query(); err != nil || res.Sample == nil {
			t.Fatalf("restored query: res=%+v err=%v", res, err)
		}
	})

	t.Run("WindowF0", func(t *testing.T) {
		opts := core.Options{Alpha: 1, Dim: 2, Seed: 11, Kappa: 1, StreamBound: 16}
		s, err := NewWindowF0(opts, win, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		s.ProcessStampedBatch(pts[:half], stamps[:half])
		restored := roundTrip(t, s, KindWindowF0).(*WindowF0)
		if got, want := estimateOf(t, restored), estimateOf(t, s); got != want {
			t.Fatalf("restored estimate %g != original %g", got, want)
		}
		s.ProcessStampedBatch(pts[half:], stamps[half:])
		restored.ProcessStampedBatch(pts[half:], stamps[half:])
		if got, want := estimateOf(t, restored), estimateOf(t, s); got != want {
			t.Fatalf("post-restore ingestion diverged: %g != %g", got, want)
		}
		if got, want := restored.Space(), s.Space(); got != want {
			t.Fatalf("post-restore space %d != %d", got, want)
		}
	})
}

// lockstepWindowL0 asserts two window samplers hold structurally
// identical state (ingestion is deterministic given the shared seed; only
// query randomness may differ).
func lockstepWindowL0(t *testing.T, a, b *WindowL0, phase string) {
	t.Helper()
	wa, wb := a.WindowSampler(), b.WindowSampler()
	if wa.Now() != wb.Now() || wa.Processed() != wb.Processed() {
		t.Fatalf("%s: clock/count diverged: now %d/%d processed %d/%d",
			phase, wa.Now(), wb.Now(), wa.Processed(), wb.Processed())
	}
	as, bs := wa.AcceptSizes(), wb.AcceptSizes()
	for l := range as {
		if as[l] != bs[l] {
			t.Fatalf("%s: level %d accept size %d != %d (all: %v vs %v)", phase, l, as[l], bs[l], as, bs)
		}
	}
	if a.Space() != b.Space() {
		t.Fatalf("%s: space %d != %d", phase, a.Space(), b.Space())
	}
}

// TestSequenceWindowSketchesNotSerializable pins the documented contract:
// sequence windows have no wire format and keep saying so.
func TestSequenceWindowSketchesNotSerializable(t *testing.T) {
	win := window.Window{Kind: window.Sequence, W: 64}
	wl, err := NewWindowL0(testOpts(100), win)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Serialize(); !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("sequence WindowL0 serialize error = %v, want ErrNotSerializable", err)
	}
	wf, err := NewWindowF0(core.Options{Alpha: 1, Dim: 2, Seed: 5, Kappa: 1, StreamBound: 16}, win, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Serialize(); !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("sequence WindowF0 serialize error = %v, want ErrNotSerializable", err)
	}
}

// TestSerializeWindowAndCustomSpaceUnsupported pins down which sketches
// refuse to serialize, and with which error: sequence windows, custom
// Spaces (not part of the wire format) and the duplicate-blind
// baselines.
func TestSerializeWindowAndCustomSpaceUnsupported(t *testing.T) {
	opts := testOpts(64)
	win := window.Window{Kind: window.Sequence, W: 32}
	wl, err := NewWindowL0(opts, win)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := NewWindowF0(core.Options{Alpha: 1, Dim: 2, Seed: 5, Kappa: 1, StreamBound: 16}, win, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	custom := opts
	custom.Space = core.NewEuclideanSpace(2, 0.5, 1, 99)
	cl, err := NewL0(custom)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    Sketch
	}{
		{"WindowL0", wl},
		{"WindowF0", wf},
		{"custom-Space L0", cl},
		{"KMV", NewKMV(64, 7)},
		{"FM", NewFM(16, 7)},
		{"HyperLogLog", NewHyperLogLog(10, 7)},
		{"LinearCounting", NewLinearCounting(1<<12, 7)},
		{"Reservoir", NewReservoir(16, 21)},
	} {
		if blob, err := tc.s.Serialize(); blob != nil || !errors.Is(err, ErrNotSerializable) {
			t.Errorf("%s serialize: %d bytes, error %v; want ErrNotSerializable", tc.name, len(blob), err)
		}
	}
}

// TestDeserializeRejectsGarbage exercises the envelope's failure modes.
func TestDeserializeRejectsGarbage(t *testing.T) {
	if _, err := Deserialize(nil); err == nil {
		t.Fatal("Deserialize(nil) succeeded")
	}
	if _, err := Deserialize([]byte("not a sketch blob")); err == nil {
		t.Fatal("Deserialize of foreign bytes succeeded")
	}
	l, err := NewL0(testOpts(16))
	if err != nil {
		t.Fatal(err)
	}
	l.Process(geom.Point{1, 2})
	blob, err := l.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[4] = 99 // unsupported version
	if _, err := Deserialize(bad); err == nil {
		t.Fatal("Deserialize accepted an unsupported version")
	}
	// The baselines' retired kinds are refused by kind, before the
	// payload is read: this one would decode as an L0.
	for k := Kind(3); k <= 7; k++ {
		_, err := Deserialize(encodeEnvelope(k, blob[envelopeHeaderLen:]))
		if err == nil || !strings.Contains(err.Error(), "unknown sketch kind") {
			t.Fatalf("kind-%d envelope: error %v, want an unknown kind", k, err)
		}
	}
	if sk, err := Deserialize(blob); err != nil {
		t.Fatal(err)
	} else if _, ok := sk.(*L0); !ok {
		t.Fatalf("an L0 blob decoded as %T", sk)
	}
	if _, err := Deserialize(blob[:len(blob)-4]); err == nil {
		t.Fatal("Deserialize accepted a truncated payload")
	}
}
