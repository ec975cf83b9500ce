package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/window"
)

// craftedL0 hand-encodes an L0 envelope in the l0s2 layout of
// docs/engine.md ("Wire format"), bypassing Options.normalize as a
// hostile peer would: alpha 1, the given dimension and grid side, R = 1
// and one entry per point, stamped 1, whose own and near levels are 0.
// Every refusal these envelopes pin comes before a cell is hashed, so
// the levels need not match the cells.
func craftedL0(dim uint64, side float64, pts ...[]float64) []byte {
	f64 := func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	b := append(append([]byte(nil), envelopeMagic[:]...), envelopeVersion, byte(KindL0))
	b = append(b, "l0s2"...)
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
		b = append(b, 0, 0, 2) // own level, near level; stamp 1 (a zigzag varint)
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
	for _, b := range craftedL0s2(f) {
		f.Add(b)
	}
	f.Add(readFixture(f, "envelope_v1_l0.bin"))
	f.Add(readFixture(f, "envelope_l0s1_l0.bin"))
	f.Add(readFixture(f, "envelope_l0s1_f0.bin"))
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

// foldSeedL0 returns the Serialize output of an L0 on testOpts(1200) fed
// testStream(groups, 3, seed), after mut edits its options.
func foldSeedL0(tb testing.TB, groups int, seed uint64, mut func(*core.Options)) []byte {
	opts := testOpts(1200)
	if mut != nil {
		mut(&opts)
	}
	l, err := NewL0(opts)
	if err != nil {
		tb.Fatal(err)
	}
	l.ProcessBatch(testStream(groups, 3, seed))
	blob, err := l.Serialize()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// l0s2Span locates one entry in an L0 envelope's l0s2 payload: the
// offsets of its witness (-1 when it carries none) and stamp varints.
type l0s2Span struct{ wit, stamp int }

// l0s2Spans walks the entries of an L0 envelope written on testOpts
// (dimension 2, no RandomRepresentative, no shared grid). It also
// returns the offset of the points-processed varint.
func l0s2Spans(blob []byte) (processed int, spans []l0s2Span) {
	uvarint := func(off int) int { _, n := binary.Uvarint(blob[off:]); return off + n }
	off := envelopeHeaderLen + len("l0s2") + 8 // alpha
	for range 4 {
		off = uvarint(off) // dim, stream bound, kappa, K
	}
	off += 8 + 1 + 1 + 8 + 8 // seed, hash, flags, side, R
	processed = off
	_, n := binary.Varint(blob[off:])
	off = uvarint(uvarint(off + n)) // processed; rehashes, peak
	count, n := binary.Uvarint(blob[off:])
	off += n
	spans = make([]l0s2Span, count)
	for i := range spans {
		own, near := blob[off]&0x7f, blob[off+1]
		off += 2
		spans[i].wit = -1
		if near > own {
			spans[i].wit, off = off, uvarint(off)
		}
		spans[i].stamp = off
		_, n := binary.Varint(blob[off:])
		off += n + 16 // stamp, rep
	}
	return processed, spans
}

// splice replaces the varint at off in blob with repl.
func splice(blob []byte, off int, repl []byte) []byte {
	_, n := binary.Uvarint(blob[off:])
	return append(append(append([]byte(nil), blob[:off]...), repl...), blob[off+n:]...)
}

// craftedL0s2 returns l0s2 envelopes that are honest but for one field:
// an entry naming a witness far outside adj(rep), entries out of stamp
// order, and those of stampsOutside.
func craftedL0s2(tb testing.TB) [][]byte {
	blob := foldSeedL0(tb, 300, 33, nil)
	_, spans := l0s2Spans(blob)
	var out [][]byte
	for _, s := range spans {
		if s.wit >= 0 {
			out = append(out, splice(blob, s.wit, binary.AppendUvarint(nil, 1<<20)))
			break
		}
	}
	if len(out) == 0 || len(spans) < 2 {
		tb.Fatal("seed stream yields no entry with a witness")
	}
	first, _ := binary.Varint(blob[spans[0].stamp:])
	out = append(out, splice(blob, spans[1].stamp, binary.AppendVarint(nil, first-1)))
	return append(out, stampsOutside(tb)...)
}

// stampsOutside returns two l0s2 envelopes whose entries are stamped
// outside [1, points processed]: one that declares 1 point processed, and
// one whose first entry is stamped 0.
func stampsOutside(tb testing.TB) [][]byte {
	blob := foldSeedL0(tb, 300, 33, nil)
	processed, spans := l0s2Spans(blob)
	if len(spans) < 2 {
		tb.Fatal("seed stream yields fewer than two entries")
	}
	return [][]byte{
		splice(blob, processed, binary.AppendVarint(nil, 1)),
		splice(blob, spans[0].stamp, binary.AppendVarint(nil, 0)),
	}
}

// TestRefusesStampsOutsideProcessed: an l0s2 blob with an entry stamped
// outside [1, points processed] is refused by Deserialize and by
// MergeSerialized, which leaves its receiver's bytes as they were.
func TestRefusesStampsOutsideProcessed(t *testing.T) {
	recvBlob := foldSeedL0(t, 300, 31, nil)
	for i, blob := range stampsOutside(t) {
		if _, err := Deserialize(blob); err == nil || !strings.Contains(err.Error(), "outside [1,") {
			t.Fatalf("blob %d: Deserialize error %v, want a stamp outside [1, points processed]", i, err)
		}
		recv, err := Deserialize(recvBlob)
		if err != nil {
			t.Fatal(err)
		}
		err = MergeSerialized(recv.(*L0), blob)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "outside [1,") {
			t.Fatalf("blob %d: MergeSerialized error %v, want ErrCorrupt for a stamp outside [1, points processed]", i, err)
		}
		if after, _ := recv.Serialize(); !bytes.Equal(after, recvBlob) {
			t.Fatalf("blob %d: a refused MergeSerialized changed its receiver", i)
		}
	}
}

// FuzzMergeSerialized folds arbitrary bytes into an L0 that already
// holds points, as a gateway folds each peer's /sketch into its first.
// No input may panic. A refused blob must leave the receiver's bytes as
// they were. When both MergeSerialized and Deserialize + Merge accept a
// blob, their answers must agree. The receiver's rate is above the
// l0s2 seed's, so the skip path runs.
func FuzzMergeSerialized(f *testing.F) {
	recvBlob := foldSeedL0(f, 300, 31, nil)
	l0s2 := foldSeedL0(f, 40, 32, nil)
	f.Add(l0s2)
	f.Add(readFixture(f, "envelope_l0s1_l0.bin"))
	f.Add(foldSeedL0(f, 40, 32, func(o *core.Options) { o.Seed = 12 }))
	f.Add(foldSeedL0(f, 40, 32, func(o *core.Options) { o.RandomRepresentative = true }))
	w, err := NewWindowL0(testOpts(1200), window.Window{Kind: window.Time, W: 8})
	if err != nil {
		f.Fatal(err)
	}
	pts, stamps := stampedTestStream(40, 3, 32)
	w.ProcessStampedBatch(pts, stamps)
	wblob, err := w.Serialize()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wblob)
	f.Add(l0s2[:len(l0s2)/2])
	for _, b := range craftedL0s2(f) {
		f.Add(b)
	}
	receiver := func(t *testing.T) *L0 {
		sk, err := Deserialize(recvBlob)
		if err != nil {
			t.Fatal(err)
		}
		return sk.(*L0)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		recv := receiver(t)
		before, err := recv.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if err := MergeSerialized(recv, blob); err != nil {
			after, err := recv.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("a refused blob changed the receiver")
			}
			return
		}
		sk, err := Deserialize(blob)
		if err != nil {
			return
		}
		ref := receiver(t)
		if err := ref.Merge(sk); err != nil {
			return
		}
		got, want := newDigest(), newDigest()
		got.l0Answers(recv)
		want.l0Answers(ref)
		if got.answerSum() != want.answerSum() {
			t.Fatal("MergeSerialized answers differ from Deserialize + Merge")
		}
	})
}
