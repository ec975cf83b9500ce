package sketch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/window"
)

// Pinned digests of one fixed stream through every α-aware family. Each
// pinnedDigests value covers the bytes Serialize writes and the answers
// the sketch gives; the pinnedAnswerDigests value of the same key covers
// the answers alone (Query, QueryK, AcceptedReps, estimates). A change
// that claims byte-identical sketches or unchanged answers must pass
// TestPinnedDigests without editing these values. A deliberate format
// change edits pinnedDigests only, and the unedited answer digests show
// that no answer moved; an answer change updates both and says so.
var pinnedDigests = map[string]string{
	"l0":            "eb076402bbb608774175dbabbb4070bc1bd7e72a59996cd6180c8a64e9039fa8",
	"l0/random-rep": "1d6164aedaa26e845a160722cfd46328cd344af49a6f45389b2d7d0480987ff0",
	"l0/fold":       "9c37a4fa9649d8ad911b1b073de89f68a29e3a9b40fa4a77caca3a81b6ac7e0d",
	"windowl0":      "6cfd2d5343d9e63288cd7ee8a0c627f8e0c1b07ada0146a70e5997f3bf5f010d",
	"f0":            "cdc81bc25ab1e12f925c7d3d675bca20362da928d41068e966b7dcec4d684694",
	"windowf0":      "c098e8f1e7b1a4b32cb485eeefdeec073eea6b1e609d6ef0d177d87bb2b7061a",

	"windowl0/merge":                "59094ab3cccf400c3fdab7bdf2b681aad6af684d18b3b05cb4a35261daf67241",
	"windowl0/partition":            "8059bca231fe1cbdc17e8fdf29277765e2edfdbf08e2540e86151dd09abae22e",
	"windowl0/restore":              "4e4699ac4aad1a35723e998f9ffe2cc2aa7120a5867900ff6e588fab10c736e5",
	"windowl0/merge/random-rep":     "6309fc657928dbf31cb19f6d95de12d5e82e92d114531eb4d5093005bed31353",
	"windowl0/partition/random-rep": "e8d048410be15296d7b1acf45d7f179e2198c4b8ee91e02ac065db09d9d9803b",
	"windowl0/restore/random-rep":   "1b48c82137e30cde20077c60f6ee08ef80ff4289ff71c73e887822c9c720d02b",
	"windowl0/merge/highdim":        "b05f5d1ccc8c082e8bb69109ac35dca82f2bd27d6c579dd600c1710296507c5a",
	"windowl0/partition/highdim":    "6dd7202c57646d84178d5d488388a8bad9a00dd995f5172ccc04b47035ce73f0",
	"windowl0/restore/highdim":      "b05b5db3d4895cf36b13ae8fcf29c20132171ae6c5c76b5870cd09d373ec1da6",
	"windowf0/merge":                "0c016d3f7745710a01724e12e8d32b0a54436a7cd95ad5e60cb7e566f30e94ff",
	"windowl0/tied-fold":            "6e7fa0214b07fe2171fbfbad4136686b666107158b88b6a5eac1b0bd8d416956",
	"windowl0/tied-fold/random-rep": "e9f25db590d758fe92c3ec7b42bcbaf4ef2469c17883a0388095bb4d080ee3f4",
}

var pinnedAnswerDigests = map[string]string{
	"l0":            "4b7c208ef0877e74cf52c20be3f4c1ac4851fd00e03afed85a9b73509a9a5fd3",
	"l0/random-rep": "f96b4d8678d5268debd01af3133373ae7c3fe69a6a4caaa8af2057dd72b83e4d",
	"l0/fold":       "845814b4dfd423034a583a2f86944eff77e6d19e1d43fa535bad7070096c78eb",
	"windowl0":      "71addc5f45ebf297f299419446c381a55228fe422fc24bbebb190059e7db4eb9",
	"f0":            "a1cabdfd8cd0e2298a8e4d4aeec8d0812bc38e9b4e4e22f5f981f88bb59f33a6",
	"windowf0":      "6a93759e9cd7c6889a0c9e9957158608c1faf077b79230c45c252ff16a87d588",

	"windowl0/merge":                "de8518d0ba7169b81f871b75aea3dc217340e76fa3aa57e56a374c1456df0a3c",
	"windowl0/partition":            "01cbd6011564ee5f5e7d1108c3e710ba315722db0d5d18fbe025be5e2627a0ad",
	"windowl0/restore":              "a7a3bb2b4acf2378a12b72547c8e9154a8e969f8eeed6d771b36296d837f08ef",
	"windowl0/merge/random-rep":     "a1904180dd8afe510eeb58d17547df900b441f66384732bd69e6a94b1452ee15",
	"windowl0/partition/random-rep": "1ff6cdb3305c6a553bd68d5ffff52d5618c894b7ff47a014bfe7f4163d477dec",
	"windowl0/restore/random-rep":   "bed85f29a195ebf8a3d358be6df5bcc0492655d9f133af2b35318be7cae94dcb",
	"windowl0/merge/highdim":        "7d5d455ab6c76f3937fd1a7a9f3b02da410bceb346530085432f2a23a37272a1",
	"windowl0/partition/highdim":    "faea4ad6081f538ac19bfa383fc880ca4b8e0cf3d281f11d83bc5cd59823ebcc",
	"windowl0/restore/highdim":      "67e9c3edf04ec09182630ec1f93ae5de1828479a0a381f71c9de691836a7c458",
	"windowf0/merge":                "be81b88901d9e889b80678699bfd58850a0d96e4871a185e3fc4294bbc89838c",
	"windowl0/tied-fold":            "f78632bf81862a2d35aff31181b9d833dd9a9807ec28c8917ea1552b3e1eaac0",
	"windowl0/tied-fold/random-rep": "6680951e4129e761d3902206e6b7afff90fdbfffff3e885eac1a8e37ba27f0a7",
}

// digest accumulates two SHA-256 sums: all over a sketch's bytes and
// answers, answers over its answers alone.
type digest struct{ all, answers hash.Hash }

func newDigest() *digest { return &digest{all: sha256.New(), answers: sha256.New()} }

// u64 hashes v into both sums; every answer is hashed through it.
func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.all.Write(b[:])
	d.answers.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) point(p geom.Point) {
	d.u64(uint64(len(p)))
	for _, x := range p {
		d.f64(x)
	}
}

// blob hashes s's Serialize output, length-prefixed, into the all sum
// only.
func (d *digest) blob(t *testing.T, s Sketch) []byte {
	t.Helper()
	b, err := s.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	d.all.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(b))))
	d.all.Write(b)
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

func (d *digest) sum() string { return hex.EncodeToString(d.all.Sum(nil)) }

func (d *digest) answerSum() string { return hex.EncodeToString(d.answers.Sum(nil)) }

// l0Digest hashes an L0 after each way one is built: Process, Merge of
// two halves, Deserialize of the processed sketch, and Partition into
// three parts.
func l0Digest(t *testing.T, randomRep bool) *digest {
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
	return d
}

// windowL0Digest hashes a time-window L0 over a stamped stream: its
// bytes, its answers, and a restored copy's answers.
func windowL0Digest(t *testing.T) *digest {
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
	return d
}

// groupShard routes a testStream point by its group: every point of a
// group lies within 0.2 of a center on the 10-spaced lattice.
func groupShard(n int) func(p geom.Point) int {
	return func(p geom.Point) int { return int(math.Round((p[0]+p[1])/10)) % n }
}

// windowL0PathDigests hashes a time-window L0 after each way a fold
// builds one, on in-order stamps:
//   - "merge": MergeFrom of two halves fed independently, split by group.
//     On this stream their union exceeds the level threshold in every
//     variant, so the merge replays it;
//   - "partition": Partition into three parts and a MergeFrom back, in
//     which every group keeps its level;
//   - "restore": Partition of a deserialized copy.
func windowL0PathDigests(t *testing.T, opts core.Options) map[string]*digest {
	pts := testStream(300, 4, 27)
	win := window.Window{Kind: window.Time, W: 400}
	mk := func() *WindowL0 {
		w, err := NewWindowL0(opts, win)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	answers := func(d *digest, s Sketch) {
		for range 8 {
			d.answer(s)
		}
	}
	out := make(map[string]*digest)

	a, b := mk(), mk()
	halves := groupShard(2)
	for i, p := range pts {
		if halves(p) == 0 {
			a.ProcessAt(p, int64(i))
		} else {
			b.ProcessAt(p, int64(i))
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	d.blob(t, a)
	answers(d, a)
	out["merge"] = d

	w := mk()
	for i, p := range pts {
		w.ProcessAt(p, int64(i))
	}
	parts, err := w.Partition(3, groupShard(3))
	if err != nil {
		t.Fatal(err)
	}
	m := parts[0].(*WindowL0)
	for _, p := range parts[1:] {
		if err := m.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	d = newDigest()
	blob := d.blob(t, m)
	answers(d, m)
	out["partition"] = d

	r, err := Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	parts, err = r.(*WindowL0).Partition(3, groupShard(3))
	if err != nil {
		t.Fatal(err)
	}
	d = newDigest()
	for _, p := range parts {
		d.blob(t, p)
		answers(d, p)
	}
	out["restore"] = d
	return out
}

// l0FoldDigest hashes an L0 folded as the gateway folds its peers: the
// first of three blobs decoded, the other two folded into it. The first
// sketch holds the first half of the stream besides its share of the
// rest, split by group, so its rate is above the others'.
func l0FoldDigest(t *testing.T) *digest {
	pts := testStream(300, 4, 28)
	opts := testOpts(len(pts))
	shard := groupShard(3)
	d := newDigest()
	blobs := make([][]byte, 3)
	parts := make([]*L0, 3)
	for i := range parts {
		l, err := NewL0(opts)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = l
	}
	for i, p := range pts {
		j := shard(p)
		if i < len(pts)/2 {
			j = 0
		}
		parts[j].Process(p)
	}
	for i, l := range parts {
		blobs[i] = d.blob(t, l)
	}
	recv, err := Deserialize(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range blobs[1:] {
		if err := MergeSerialized(recv.(Mergeable), blob); err != nil {
			t.Fatal(err)
		}
	}
	d.blob(t, recv)
	d.l0Answers(recv.(*L0))
	return d
}

// tiedStream is a stream shaped like bench/'s cluster-window workload:
// 512 Zipf(1.2) groups on a 10α lattice, 200-point batches whose points
// share one stamp, batches 10 stamps apart with ±200 jitter, and 10% of
// batches 1000–3000 stamps late. A level then holds runs of entries with
// one latest stamp, so its digests see the order ties are filed in,
// which testStream's uniquely stamped points cannot.
type tiedStream struct {
	rng *rand.Rand
	cdf []float64
	b   int
}

func newTiedStream(seed uint64) *tiedStream {
	cdf := make([]float64, 512)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -1.2)
		cdf[i] = total
	}
	return &tiedStream{rng: rand.New(rand.NewPCG(seed, 0x71ed)), cdf: cdf}
}

// next returns the next batch, its stamp, and each point's group.
func (s *tiedStream) next() ([]geom.Point, int64, []int) {
	stamp := 1_000_000 + int64(s.b)*10 + s.rng.Int64N(401) - 200
	if s.b > 0 && s.rng.Float64() < 0.10 {
		stamp -= 1000 + s.rng.Int64N(2001)
	}
	s.b++
	pts := make([]geom.Point, 200)
	groups := make([]int, len(pts))
	for i := range pts {
		g := min(sort.SearchFloat64s(s.cdf, s.rng.Float64()*s.cdf[len(s.cdf)-1]), len(s.cdf)-1)
		groups[i] = g
		pts[i] = geom.Point{
			float64(g%64)*10 + (2*s.rng.Float64()-1)/4,
			float64(g/64)*10 + (2*s.rng.Float64()-1)/4,
		}
	}
	return pts, stamp, groups
}

// windowL0TiedFoldDigest hashes time-window L0s built the way a window
// cluster builds them, on tiedStream: three daemons of two shards each,
// every group routed whole to one shard. At three points of the stream,
// the last after expiry has begun, it hashes each daemon's snapshot (a
// fresh sketch that merges its shards in order), the gateway's fold of
// the three snapshot blobs (the first decoded, the others folded in by
// MergeSerialized) with 16 answers, and each part of a Partition of the
// fold, decoded again, with 4 answers.
func windowL0TiedFoldDigest(t *testing.T, randomRep bool) *digest {
	opts := core.Options{Alpha: 1, Dim: 2, Seed: 1, StreamBound: 1 << 23, RandomRepresentative: randomRep}
	win := window.Window{Kind: window.Time, W: 5000}
	mk := func() *WindowL0 {
		w, err := NewWindowL0(opts, win)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	answers := func(d *digest, s Sketch, n int) {
		for range n {
			d.answer(s)
		}
	}
	const peers, shards = 3, 2
	daemons := make([][]*WindowL0, peers)
	for i := range daemons {
		for range shards {
			daemons[i] = append(daemons[i], mk())
		}
	}
	src := newTiedStream(25)
	d := newDigest()
	for range 3 {
		for range 200 {
			pts, stamp, groups := src.next()
			for i, p := range pts {
				g := groups[i]
				daemons[g%peers][g/peers%shards].ProcessAt(p, stamp)
			}
		}
		blobs := make([][]byte, peers)
		for i, shs := range daemons {
			snap := mk()
			for _, sh := range shs {
				if err := snap.Merge(sh); err != nil {
					t.Fatal(err)
				}
			}
			blobs[i] = d.blob(t, snap)
		}
		fold, err := Deserialize(blobs[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, blob := range blobs[1:] {
			if err := MergeSerialized(fold.(Mergeable), blob); err != nil {
				t.Fatal(err)
			}
		}
		d.blob(t, fold)
		answers(d, fold, 16)
		parts, err := fold.(*WindowL0).Partition(3, groupShard(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			r, err := Deserialize(d.blob(t, p))
			if err != nil {
				t.Fatal(err)
			}
			d.blob(t, r)
			answers(d, r, 4)
		}
	}
	return d
}

// f0Digest hashes an F0 sketch's bytes and estimate.
func f0Digest(t *testing.T) *digest {
	pts := testStream(300, 4, 23)
	e, err := NewF0(testOpts(len(pts)), 0.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	e.ProcessBatch(pts)
	d := newDigest()
	d.blob(t, e)
	d.answer(e)
	return d
}

// windowF0Digest hashes a time-window F0 sketch's bytes and estimate.
func windowF0Digest(t *testing.T) *digest {
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
	return d
}

// windowF0MergeDigest hashes a time-window F0 sketch merged from two
// halves fed independently, split by group, on in-order stamps.
func windowF0MergeDigest(t *testing.T) *digest {
	pts := testStream(300, 4, 26)
	win := window.Window{Kind: window.Time, W: 400}
	a, err := NewWindowF0(testOpts(len(pts)), win, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWindowF0(testOpts(len(pts)), win, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	halves := groupShard(2)
	for i, p := range pts {
		if halves(p) == 0 {
			a.ProcessAt(p, int64(i))
		} else {
			b.ProcessAt(p, int64(i))
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	d.blob(t, a)
	d.answer(a)
	return d
}

// TestPinnedDigests checks every family's bytes and answers on a fixed
// stream against pinnedDigests, and its answers against
// pinnedAnswerDigests.
func TestPinnedDigests(t *testing.T) {
	got := map[string]*digest{
		"l0":             l0Digest(t, false),
		"l0/random-rep":  l0Digest(t, true),
		"l0/fold":        l0FoldDigest(t),
		"windowl0":       windowL0Digest(t),
		"f0":             f0Digest(t),
		"windowf0":       windowF0Digest(t),
		"windowf0/merge": windowF0MergeDigest(t),

		"windowl0/tied-fold":            windowL0TiedFoldDigest(t, false),
		"windowl0/tied-fold/random-rep": windowL0TiedFoldDigest(t, true),
	}
	base := testOpts(1200)
	randomRep, highDim := base, base
	randomRep.RandomRepresentative = true
	highDim.HighDim = true
	for variant, opts := range map[string]core.Options{"": base, "/random-rep": randomRep, "/highdim": highDim} {
		for path, sum := range windowL0PathDigests(t, opts) {
			got["windowl0/"+path+variant] = sum
		}
	}
	checkDigests(t, "", got, (*digest).sum, pinnedDigests)
	checkDigests(t, "answer ", got, (*digest).answerSum, pinnedAnswerDigests)
}

// checkDigests compares one sum of every digest in got against pinned,
// key for key.
func checkDigests(t *testing.T, what string, got map[string]*digest, sum func(*digest) string, pinned map[string]string) {
	t.Helper()
	for name, d := range got {
		if _, ok := pinned[name]; !ok {
			t.Errorf("%s %sdigest = %s is not pinned", name, what, sum(d))
		}
	}
	for name, want := range pinned {
		d, ok := got[name]
		if !ok {
			t.Errorf("%s %sdigest is pinned but not computed", name, what)
			continue
		}
		if s := sum(d); s != want {
			t.Errorf("%s %sdigest = %s, want %s", name, what, s, want)
		}
	}
}
