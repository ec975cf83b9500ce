package sketch

// Compat-policy suite: envelope version 1 (gob payloads) is retired.
// The envelope_v1 fixtures were written by the version-1 code and are
// immutable; every one of them, and every gob payload re-wrapped in a
// current envelope, must be refused with core.ErrRetiredFormat, whose
// message names envelope version 1 and the compat policy. The
// envelope_separate_grids fixtures hold f0 stacks whose copies each
// derived their own grid; f0.ErrSeparateGrids refuses them, but for the
// f0 one, whose copies are l0s1. The envelope_l0s1 fixtures hold the
// l0s1 sampler payload, which is retired too: core.ErrRetiredFormat
// refuses it with a message that names l0s1 and the compat policy.

import (
	"bytes"
	"encoding/binary"
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

// requireL0s1Refused fails unless err is the compat-policy refusal of
// the l0s1 sampler payload, which names l0s1 and not envelope version 1.
func requireL0s1Refused(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, core.ErrRetiredFormat) {
		t.Fatalf("error = %v, want core.ErrRetiredFormat", err)
	}
	for _, want := range []string{"l0s1", "compat policy"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "envelope version 1") {
		t.Fatalf("error %q names envelope version 1", err)
	}
}

// requireSeparateGrids fails unless err is f0.ErrSeparateGrids.
func requireSeparateGrids(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, f0.ErrSeparateGrids) || !strings.Contains(err.Error(), "separate grids") {
		t.Fatalf("error = %v, want f0.ErrSeparateGrids", err)
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
// and are immutable. The windowf0 envelope must fail with
// f0.ErrSeparateGrids, which names the cause; the f0 one, whose copies
// are l0s1, fails at its first copy's retired payload.
// TestDeserializeSeparateGridsF0 pins the f0 refusal on l0s2 copies.
func TestDeserializeSeparateGridFixtures(t *testing.T) {
	for _, tc := range []struct {
		file string
		kind Kind
		want func(*testing.T, error)
	}{
		{"envelope_separate_grids_f0.bin", KindF0, requireL0s1Refused},
		{"envelope_separate_grids_windowf0.bin", KindWindowF0, requireSeparateGrids},
	} {
		t.Run(tc.file, func(t *testing.T) {
			blob := readFixture(t, tc.file)
			if kind, err := KindOf(blob); err != nil || kind != tc.kind {
				t.Fatalf("fixture kind %v (%v), want %v — fixtures must never be regenerated", kind, err, tc.kind)
			}
			_, err := Deserialize(blob)
			tc.want(t, err)
		})
	}
}

// f0Copies splits an f0 envelope into its payload's head (magic and
// epsilon) and its copy blobs, the layout of docs/engine.md ("Wire
// format").
func f0Copies(t *testing.T, blob []byte) (head []byte, copies [][]byte) {
	t.Helper()
	rest := blob[envelopeHeaderLen+len("f0m1")+8:]
	n, sz := binary.Uvarint(rest)
	rest = rest[sz:]
	for range n {
		l, sz := binary.Uvarint(rest)
		copies = append(copies, rest[sz:sz+int(l)])
		rest = rest[sz+int(l):]
	}
	if len(rest) != 0 || len(copies) == 0 {
		t.Fatalf("f0 envelope has %d copies and %d trailing bytes", len(copies), len(rest))
	}
	return blob[envelopeHeaderLen : envelopeHeaderLen+len("f0m1")+8], copies
}

// TestDeserializeSeparateGridsF0 pins f0.ErrSeparateGrids on current
// state: an f0 envelope whose copy 1 comes from a stack on another root
// seed, hence another grid, is refused.
func TestDeserializeSeparateGridsF0(t *testing.T) {
	stack := func(seed uint64) []byte {
		opts := testOpts(300)
		opts.Seed = seed
		f, err := NewF0(opts, 0.5, 3)
		if err != nil {
			t.Fatal(err)
		}
		f.ProcessBatch(testStream(100, 3, 41))
		blob, err := f.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	head, copies := f0Copies(t, stack(5))
	_, foreign := f0Copies(t, stack(6))
	copies[1] = foreign[1]
	payload := binary.AppendUvarint(append([]byte(nil), head...), uint64(len(copies)))
	for _, c := range copies {
		payload = append(binary.AppendUvarint(payload, uint64(len(c))), c...)
	}
	_, err := Deserialize(encodeEnvelope(KindF0, payload))
	requireSeparateGrids(t, err)
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

// TestL0s1Fixtures pins the compat policy for the retired l0s1 sampler
// payload: envelope_l0s1_l0.bin (an L0) and envelope_l0s1_f0.bin (an F0
// whose copies are l0s1), written by the last build that wrote l0s1,
// must be refused by name, and the l0 fixture must also be refused by
// MergeSerialized into an L0 holding points, which keeps its bytes.
func TestL0s1Fixtures(t *testing.T) {
	for _, file := range []string{"envelope_l0s1_l0.bin", "envelope_l0s1_f0.bin"} {
		t.Run(file, func(t *testing.T) {
			blob := readFixture(t, file)
			if !strings.Contains(string(blob), "l0s1") {
				t.Fatal("fixture holds no l0s1 payload — fixtures must never be regenerated")
			}
			_, err := Deserialize(blob)
			requireL0s1Refused(t, err)
		})
	}

	recv, err := NewL0(testOpts(300))
	if err != nil {
		t.Fatal(err)
	}
	recv.ProcessBatch(testStream(100, 3, 30))
	before, err := recv.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	err = MergeSerialized(recv, readFixture(t, "envelope_l0s1_l0.bin"))
	requireL0s1Refused(t, err)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("MergeSerialized error %v, want ErrCorrupt", err)
	}
	if after, _ := recv.Serialize(); !bytes.Equal(after, before) {
		t.Fatal("a refused MergeSerialized changed its receiver")
	}
}
