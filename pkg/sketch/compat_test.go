package sketch

// Compat-policy suite: envelope version 1 (gob payloads) is retired.
// The envelope_v1 fixtures were written by the version-1 code and are
// immutable; every one of them, and every gob payload re-wrapped in a
// current envelope, must be refused with core.ErrRetiredFormat, whose
// message names envelope version 1 and the compat policy. The
// envelope_separate_grids fixtures hold f0 stacks whose copies each
// derived their own grid; f0.ErrSeparateGrids refuses them. The
// envelope_l0s1 fixtures hold the l0s1 sampler payload, which is still
// read (TestL0s1Fixtures).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/f0"
)

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// requireRetired fails unless err is the compat-policy refusal.
func requireRetired(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, core.ErrRetiredFormat) {
		t.Fatalf("error = %v, want core.ErrRetiredFormat", err)
	}
	for _, want := range []string{"envelope version 1", "compat policy"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// requireV1Refused pins the refusal of one v1 fixture of the given kind:
// as written (a version-1 envelope) and with its gob payload re-wrapped
// in a current envelope.
func requireV1Refused(t *testing.T, file string, kind Kind) {
	t.Helper()
	blob := readFixture(t, file)
	if blob[4] != 1 || Kind(blob[5]) != kind {
		t.Fatalf("fixture envelope version %d kind %d, want 1 and %v — fixtures must never be regenerated",
			blob[4], blob[5], kind)
	}
	_, err := KindOf(blob)
	requireRetired(t, err)
	_, err = Deserialize(blob)
	requireRetired(t, err)
	_, err = Deserialize(encodeEnvelope(kind, blob[envelopeHeaderLen:]))
	requireRetired(t, err)
}

// TestDeserializeV1Fixtures pins that envelopes written by the retired
// gob format (envelope version 1) are refused under the compat policy.
func TestDeserializeV1Fixtures(t *testing.T) {
	for _, tc := range []struct {
		file string
		kind Kind
	}{
		{"envelope_v1_l0.bin", KindL0},
		{"envelope_v1_f0.bin", KindF0},
		{"envelope_v1_windowf0.bin", KindWindowF0},
	} {
		t.Run(tc.file, func(t *testing.T) { requireV1Refused(t, tc.file, tc.kind) })
	}
}

// TestDeserializeV1WindowL0Fixture covers the sample-only window family.
func TestDeserializeV1WindowL0Fixture(t *testing.T) {
	requireV1Refused(t, "envelope_v1_windowl0.bin", KindWindowL0)
}

// TestDeserializeSeparateGridFixtures pins the refusal of f0 and
// windowf0 state written before an estimator's copies shared one grid,
// when every copy derived its own. The fixtures were written by that code
// and are immutable: a current envelope whose copies sit on separate grids
// must fail with f0.ErrSeparateGrids, which names the cause.
func TestDeserializeSeparateGridFixtures(t *testing.T) {
	for _, tc := range []struct {
		file string
		kind Kind
	}{
		{"envelope_separate_grids_f0.bin", KindF0},
		{"envelope_separate_grids_windowf0.bin", KindWindowF0},
	} {
		t.Run(tc.file, func(t *testing.T) {
			blob := readFixture(t, tc.file)
			if kind, err := KindOf(blob); err != nil || kind != tc.kind {
				t.Fatalf("fixture kind %v (%v), want %v — fixtures must never be regenerated", kind, err, tc.kind)
			}
			_, err := Deserialize(blob)
			if !errors.Is(err, f0.ErrSeparateGrids) || !strings.Contains(err.Error(), "separate grids") {
				t.Fatalf("error = %v, want f0.ErrSeparateGrids", err)
			}
		})
	}
}

// TestDeserializeFutureVersionRefused pins that only the current
// envelope version decodes: a version-3 envelope is unknown, not retired.
func TestDeserializeFutureVersionRefused(t *testing.T) {
	l0, err := NewL0(core.Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	l0.Process([]float64{1, 2})
	blob, err := l0.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	blob[4] = envelopeVersion + 1
	_, err = Deserialize(blob)
	if err == nil || errors.Is(err, core.ErrRetiredFormat) {
		t.Fatalf("version-%d envelope: error %v, want an unsupported-version error", blob[4], err)
	}
}

// TestL0s1Fixtures pins the compat policy for the l0s1 sampler payload,
// which is read but no longer written: envelope_l0s1_l0.bin (an L0) and
// envelope_l0s1_f0.bin (an F0 whose copies are l0s1) were written by the
// last build that wrote l0s1, over testStream(300, 4, 29). Each must
// decode to the state a current build reaches on that stream, byte for
// byte once re-serialized, and an l0 fixture must fold into an L0 as
// Deserialize and Merge fold it.
func TestL0s1Fixtures(t *testing.T) {
	pts := testStream(300, 4, 29)
	l0, err := NewL0(testOpts(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	f0, err := NewF0(testOpts(len(pts)), 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file string
		live Sketch
	}{
		{"envelope_l0s1_l0.bin", l0},
		{"envelope_l0s1_f0.bin", f0},
	} {
		t.Run(tc.file, func(t *testing.T) {
			blob := readFixture(t, tc.file)
			if !strings.Contains(string(blob), "l0s1") {
				t.Fatal("fixture holds no l0s1 payload — fixtures must never be regenerated")
			}
			tc.live.ProcessBatch(pts)
			got, err := Deserialize(blob)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := got.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, err := tc.live.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatal("the decoded fixture re-serializes differently from the same stream's sketch")
			}
		})
	}

	recv := func() *L0 {
		l, err := NewL0(testOpts(len(pts)))
		if err != nil {
			t.Fatal(err)
		}
		l.ProcessBatch(testStream(100, 3, 30))
		return l
	}
	want, got := recv(), recv()
	fixture := readFixture(t, "envelope_l0s1_l0.bin")
	sk, err := Deserialize(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Merge(sk); err != nil {
		t.Fatal(err)
	}
	if err := MergeSerialized(got, fixture); err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := want.Serialize()
	gotBytes, _ := got.Serialize()
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatal("MergeSerialized of the l0s1 fixture differs from Deserialize + Merge")
	}
}
