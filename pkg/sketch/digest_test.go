package sketch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/window"
)

// Pinned digests of one fixed stream through every α-aware family. Each
// covers the bytes Serialize writes and the answers the sketch gives. A
// change that claims byte-identical sketches or unchanged answers must
// pass TestPinnedDigests without editing these values; a deliberate
// format or answer change updates them and says so.
var pinnedDigests = map[string]string{
	"l0":            "c5aed636b11bf7c8012714cb2852021d245212bdadb3168c3ff0fa734debe622",
	"l0/random-rep": "3a4d37d5a7deba946e41261ced3be95573f0f882c38ba11e84928dc97452f037",
	"windowl0":      "6cfd2d5343d9e63288cd7ee8a0c627f8e0c1b07ada0146a70e5997f3bf5f010d",
	"f0":            "3c4d8e815bdfede0ac5c01706a141e48bcf1c16e7424e04f7a121d0e786a3ef0",
	"windowf0":      "274faa2407a17ea56780b4b53712208831447a933e159508f835d80891fd8c8a",
}

// digest accumulates a SHA-256 over a sketch's bytes and answers.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) point(p geom.Point) {
	d.u64(uint64(len(p)))
	for _, x := range p {
		d.f64(x)
	}
}

// blob hashes s's Serialize output, length-prefixed.
func (d *digest) blob(t *testing.T, s Sketch) []byte {
	t.Helper()
	b, err := s.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	d.u64(uint64(len(b)))
	d.h.Write(b)
	return b
}

// answer hashes one Query: the sample and estimate, or an error marker.
func (d *digest) answer(s Sketch) {
	res, err := s.Query()
	if err != nil {
		d.u64(math.MaxUint64)
		return
	}
	d.point(res.Sample)
	d.f64(res.Estimate)
}

// l0Answers hashes a run of Query and QueryK answers of an L0, including
// a QueryK larger than the accept set.
func (d *digest) l0Answers(l *L0) {
	for range 8 {
		d.answer(l)
	}
	for _, k := range []int{1, 3, 3, 5, 1 << 20} {
		pts, err := l.QueryK(k)
		if err != nil {
			d.u64(math.MaxUint64)
			continue
		}
		d.u64(uint64(len(pts)))
		for _, p := range pts {
			d.point(p)
		}
	}
	for _, p := range l.Sampler().AcceptedReps() {
		d.point(p)
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// l0Digest hashes an L0 after each way one is built: Process, Merge of
// two halves, Deserialize of the processed sketch, and Partition into
// three parts.
func l0Digest(t *testing.T, randomRep bool) string {
	pts := testStream(300, 4, 21)
	opts := testOpts(len(pts))
	opts.RandomRepresentative = randomRep
	d := newDigest()

	a, err := NewL0(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		a.Process(p)
	}
	blob := d.blob(t, a)
	d.l0Answers(a)

	half := len(pts) / 2
	m, _ := NewL0(opts)
	b, _ := NewL0(opts)
	m.ProcessBatch(pts[:half])
	b.ProcessBatch(pts[half:])
	if err := m.Merge(b); err != nil {
		t.Fatal(err)
	}
	d.blob(t, m)
	d.l0Answers(m)

	r, err := Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	d.blob(t, r)
	d.l0Answers(r.(*L0))

	parts, err := a.Partition(3, func(p geom.Point) int { return int(math.Abs(p[0]+p[1])) % 3 })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		d.blob(t, p)
		d.l0Answers(p.(*L0))
	}
	return d.sum()
}

// windowL0Digest hashes a time-window L0 over a stamped stream: its
// bytes, its answers, and a restored copy's answers.
func windowL0Digest(t *testing.T) string {
	pts := testStream(300, 4, 22)
	w, err := NewWindowL0(testOpts(len(pts)), window.Window{Kind: window.Time, W: 400})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		w.ProcessAt(p, int64(i))
	}
	d := newDigest()
	blob := d.blob(t, w)
	for range 8 {
		d.answer(w)
	}
	r, err := Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	for range 8 {
		d.answer(r)
	}
	return d.sum()
}

// f0Digest hashes an F0 sketch's bytes and estimate.
func f0Digest(t *testing.T) string {
	pts := testStream(300, 4, 23)
	e, err := NewF0(testOpts(len(pts)), 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(pts)
	d := newDigest()
	d.blob(t, e)
	d.answer(e)
	return d.sum()
}

// windowF0Digest hashes a time-window F0 sketch's bytes and estimate.
func windowF0Digest(t *testing.T) string {
	pts := testStream(300, 4, 24)
	e, err := NewWindowF0(testOpts(len(pts)), window.Window{Kind: window.Time, W: 400}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		e.ProcessAt(p, int64(i))
	}
	d := newDigest()
	d.blob(t, e)
	d.answer(e)
	return d.sum()
}

// TestPinnedDigests checks every family's bytes and answers on a fixed
// stream against pinnedDigests.
func TestPinnedDigests(t *testing.T) {
	got := map[string]string{
		"l0":            l0Digest(t, false),
		"l0/random-rep": l0Digest(t, true),
		"windowl0":      windowL0Digest(t),
		"f0":            f0Digest(t),
		"windowf0":      windowF0Digest(t),
	}
	for name, want := range pinnedDigests {
		if got[name] != want {
			t.Errorf("%s digest = %s, want %s", name, got[name], want)
		}
	}
}
