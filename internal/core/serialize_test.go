package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/geom"
	"repro/internal/hash"
)

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	pts, labels := clusters(rng, []int{4, 4, 4, 4, 4, 4}, 3, 1, 50)
	shuffleStream(rng, pts, labels)
	s, _ := NewSampler(Options{Alpha: 1, Dim: 3, Seed: 9, RandomRepresentative: true})
	for _, p := range pts {
		s.Process(p)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r, err := UnmarshalSampler(blob)
	if err != nil {
		t.Fatal(err)
	}
	if r.R() != s.R() || r.Processed() != s.Processed() ||
		r.AcceptSize() != s.AcceptSize() || r.RejectSize() != s.RejectSize() {
		t.Fatalf("restored counters differ: R %d/%d acc %d/%d rej %d/%d",
			r.R(), s.R(), r.AcceptSize(), s.AcceptSize(), r.RejectSize(), s.RejectSize())
	}
	if r.PeakSpaceWords() < s.SpaceWords() {
		t.Fatal("restored peak lost")
	}
	// The restored sketch must keep working: feed more points and query.
	for _, p := range pts {
		r.Process(p) // duplicates; must not change group count
	}
	if r.AcceptSize() != s.AcceptSize() {
		t.Fatal("duplicates changed the restored sketch")
	}
	if _, err := r.Query(); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTripContinuesCorrectly(t *testing.T) {
	// Split a stream in half, checkpoint in the middle, restore, finish;
	// the final accept/reject sets must equal a straight-through run.
	rng := rand.New(rand.NewPCG(2, 2))
	pts, labels := clusters(rng, []int{3, 3, 3, 3, 3, 3, 3, 3}, 2, 1, 40)
	shuffleStream(rng, pts, labels)
	opts := Options{Alpha: 1, Dim: 2, Seed: 33}

	straight, _ := NewSampler(opts)
	for _, p := range pts {
		straight.Process(p)
	}

	half, _ := NewSampler(opts)
	mid := len(pts) / 2
	for _, p := range pts[:mid] {
		half.Process(p)
	}
	blob, err := half.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := UnmarshalSampler(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[mid:] {
		resumed.Process(p)
	}

	if resumed.AcceptSize() != straight.AcceptSize() ||
		resumed.RejectSize() != straight.RejectSize() ||
		resumed.R() != straight.R() {
		t.Fatalf("resumed run diverged: acc %d/%d rej %d/%d R %d/%d",
			resumed.AcceptSize(), straight.AcceptSize(),
			resumed.RejectSize(), straight.RejectSize(),
			resumed.R(), straight.R())
	}
	want := pointSet(straight.AcceptedReps())
	got := pointSet(resumed.AcceptedReps())
	for k := range want {
		if !got[k] {
			t.Fatal("accepted representative sets differ after resume")
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSampler([]byte("not a sketch")); err == nil {
		t.Fatal("expected error for garbage input")
	}
	// A sketch from one seed must be detected when decoded against
	// internally inconsistent state: build a valid blob and flip options.
	s, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 1})
	for i := 0; i < 50; i++ {
		s.Process(geom.Point{float64(i) * 10, 0})
	}
	blob, _ := s.MarshalBinary()
	if _, err := UnmarshalSampler(blob); err != nil {
		t.Fatalf("valid blob rejected: %v", err)
	}
}

func pointSet(pts []geom.Point) map[string]bool {
	out := make(map[string]bool, len(pts))
	for _, p := range pts {
		out[p.String()] = true
	}
	return out
}

// TestUnmarshalRefusesUnsampledReject: Definition 2.2 keeps a rejected
// group only while some cell of adj(rep) is sampled, so a blob holding a
// rejected entry with no sampled adjacent cell at its R is refused, as
// the window decoder refuses one.
func TestUnmarshalRefusesUnsampledReject(t *testing.T) {
	const r = 1024
	s, err := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.r = r
	var p geom.Point
	for i := 0; p == nil; i++ {
		q := geom.Point{10.3 * float64(i), 7}
		if adj := s.spc.Adjacent(nil, q); !s.anySampled(adj) {
			p = q
		}
	}
	s.store(&entry{rep: p, cell: s.spc.Cell(p), adj: s.spc.Adjacent(nil, p), stamp: 1, count: 1, pick: p})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := UnmarshalSampler(blob); err == nil {
		t.Fatalf("decoded a rejected entry with no sampled adjacent cell at R=%d: RejectSize %d", r, got.RejectSize())
	}
}

func TestMergeDisjointShards(t *testing.T) {
	// Shard A holds groups 0..9, shard B groups 10..19: the merge must
	// know all 20 and sample uniformly.
	rng := rand.New(rand.NewPCG(3, 3))
	sizes := make([]int, 20)
	for i := range sizes {
		sizes[i] = 3
	}
	pts, labels := clusters(rng, sizes, 2, 1, 60)
	opts := Options{Alpha: 1, Dim: 2, Seed: 77}
	a, _ := NewSampler(opts)
	b, _ := NewSampler(opts)
	for i, p := range pts {
		if labels[i] < 10 {
			a.Process(p)
		} else {
			b.Process(p)
		}
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Processed() != a.Processed()+b.Processed() {
		t.Fatal("merged processed count wrong")
	}
	// All candidate groups of the merge must be real groups, and both
	// shards' groups must be reachable over repeated queries.
	seen := map[int]bool{}
	for trial := 0; trial < 400; trial++ {
		q, err := m.Query()
		if err != nil {
			t.Fatal(err)
		}
		lab := labelOf(q, pts, labels, 1)
		if lab < 0 {
			t.Fatal("merged sample outside all groups")
		}
		seen[lab] = true
	}
	lowSeen, highSeen := false, false
	for g := range seen {
		if g < 10 {
			lowSeen = true
		} else {
			highSeen = true
		}
	}
	if !lowSeen || !highSeen {
		t.Fatalf("merge lost a shard: saw %v", seen)
	}
}

func TestMergeOverlappingShards(t *testing.T) {
	// The same groups appear in both shards; the merge must not
	// double-count them.
	rng := rand.New(rand.NewPCG(4, 4))
	sizes := []int{4, 4, 4, 4, 4}
	pts, _ := clusters(rng, sizes, 2, 1, 50)
	opts := Options{Alpha: 1, Dim: 2, Seed: 88}
	a, _ := NewSampler(opts)
	b, _ := NewSampler(opts)
	for _, p := range pts {
		a.Process(p)
		b.Process(p)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if total := m.AcceptSize() + m.RejectSize(); total > 5 {
		t.Fatalf("merge stored %d candidate groups for 5 real groups", total)
	}
	straight, _ := NewSampler(opts)
	for _, p := range pts {
		straight.Process(p)
	}
	if m.AcceptSize() != straight.AcceptSize() {
		t.Fatalf("merged accept size %d, straight run %d", m.AcceptSize(), straight.AcceptSize())
	}
}

func TestMergeMatchesConcatenation(t *testing.T) {
	// Merge(a, b) must store exactly the groups a one-pass run over
	// a ++ b stores (same options → same hash → same classification).
	rng := rand.New(rand.NewPCG(5, 5))
	sizes := make([]int, 30)
	for i := range sizes {
		sizes[i] = 2
	}
	pts, labels := clusters(rng, sizes, 2, 1, 40)
	shuffleStream(rng, pts, labels)
	opts := Options{Alpha: 1, Dim: 2, Seed: 99}
	mid := len(pts) / 2

	a, _ := NewSampler(opts)
	for _, p := range pts[:mid] {
		a.Process(p)
	}
	b, _ := NewSampler(opts)
	for _, p := range pts[mid:] {
		b.Process(p)
	}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	straight, _ := NewSampler(opts)
	for _, p := range pts {
		straight.Process(p)
	}
	if m.R() != straight.R() || m.AcceptSize() != straight.AcceptSize() {
		t.Fatalf("merge vs straight: R %d/%d, acc %d/%d",
			m.R(), straight.R(), m.AcceptSize(), straight.AcceptSize())
	}
	want := pointSet(straight.AcceptedReps())
	got := pointSet(m.AcceptedReps())
	for k := range want {
		if !got[k] {
			t.Fatalf("merged accept set missing representative %s", k)
		}
	}
}

func TestMergeUniformity(t *testing.T) {
	// Uniform sampling across groups must survive the merge even when one
	// shard holds far more duplicates.
	rng := rand.New(rand.NewPCG(6, 6))
	sizes := []int{1, 5, 10, 20, 40, 80}
	pts, labels := clusters(rng, sizes, 2, 1, 70)
	counts := make([]int, len(sizes))
	const runs = 4000
	sm := hash.NewSplitMix(55)
	for r := 0; r < runs; r++ {
		opts := Options{Alpha: 1, Dim: 2, Seed: sm.Next()}
		a, _ := NewSampler(opts)
		b, _ := NewSampler(opts)
		for i, p := range pts {
			if i%3 == 0 {
				a.Process(p)
			} else {
				b.Process(p)
			}
		}
		m, err := Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		q, err := m.Query()
		if err != nil {
			t.Fatal(err)
		}
		lab := labelOf(q, pts, labels, 1)
		if lab < 0 {
			t.Fatal("sample outside groups")
		}
		counts[lab]++
	}
	target := float64(runs) / float64(len(sizes))
	for g, c := range counts {
		if math.Abs(float64(c)-target) > 5*math.Sqrt(target) {
			t.Errorf("group %d: %d hits, want ≈%.0f", g, c, target)
		}
	}
}

func TestMarshalRejectsCustomSpace(t *testing.T) {
	s, err := NewSampler(Options{
		Alpha: 1, Dim: 2, Seed: 1,
		Space: NewEuclideanSpace(2, 0.5, 1, 99), // any explicit Space
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Process(geom.Point{1, 1})
	if _, err := s.MarshalBinary(); err == nil {
		t.Fatal("expected error serializing a custom-Space sketch")
	}
}

func TestMergeRejectsDifferentOptions(t *testing.T) {
	a, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 1})
	b, _ := NewSampler(Options{Alpha: 1, Dim: 2, Seed: 2})
	if _, err := Merge(a, b); !errors.Is(err, ErrMergeOptions) {
		t.Fatalf("expected ErrMergeOptions, got %v", err)
	}
}

func TestMergeCustomSpaceIdentity(t *testing.T) {
	// Sketches sharing ONE Space instance merge; sketches with distinct
	// (even identically configured) instances do not — merging requires
	// literally the same bucketing.
	shared := NewEuclideanSpace(2, 0.5, 1, 7)
	opts := Options{Alpha: 1, Dim: 2, Seed: 1, Space: shared}
	a, _ := NewSampler(opts)
	b, _ := NewSampler(opts)
	a.Process(geom.Point{0, 0})
	b.Process(geom.Point{50, 50})
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.AcceptSize()+m.RejectSize() != 2 {
		t.Fatalf("merged candidate groups = %d, want 2", m.AcceptSize()+m.RejectSize())
	}

	other := Options{Alpha: 1, Dim: 2, Seed: 1, Space: NewEuclideanSpace(2, 0.5, 1, 7)}
	c, _ := NewSampler(other)
	if _, err := Merge(a, c); !errors.Is(err, ErrMergeOptions) {
		t.Fatalf("distinct Space instances must not merge, got %v", err)
	}
}
