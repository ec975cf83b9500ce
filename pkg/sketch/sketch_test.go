package sketch

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/window"
)

// testStream builds a stream of numGroups well-separated groups (centers
// on a spaced grid, duplicates jittered within alpha/2), shuffled.
func testStream(numGroups, dup int, seed uint64) []geom.Point {
	rng := rand.New(rand.NewPCG(seed, seed^0xabc))
	var pts []geom.Point
	for g := 0; g < numGroups; g++ {
		c := geom.Point{float64(g%40) * 10, float64(g/40) * 10}
		for d := 0; d < dup; d++ {
			pts = append(pts, geom.Point{
				c[0] + (rng.Float64()-0.5)*0.4,
				c[1] + (rng.Float64()-0.5)*0.4,
			})
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

func testOpts(streamLen int) core.Options {
	return core.Options{Alpha: 1, Dim: 2, Seed: 11, StreamBound: streamLen + 1}
}

func TestL0BatchMatchesSequential(t *testing.T) {
	pts := testStream(100, 5, 1)
	a, err := NewL0(testOpts(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewL0(testOpts(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		a.Process(p)
	}
	for i := 0; i < len(pts); i += 64 {
		end := min(i+64, len(pts))
		b.ProcessBatch(pts[i:end])
	}
	sa, sb := a.Sampler(), b.Sampler()
	if sa.AcceptSize() != sb.AcceptSize() || sa.RejectSize() != sb.RejectSize() || sa.R() != sb.R() {
		t.Fatalf("batch sketch differs from sequential: |Sacc| %d vs %d, |Srej| %d vs %d, R %d vs %d",
			sa.AcceptSize(), sb.AcceptSize(), sa.RejectSize(), sb.RejectSize(), sa.R(), sb.R())
	}
}

func TestL0QuerySerializeMerge(t *testing.T) {
	pts := testStream(60, 4, 2)
	l, err := NewL0(testOpts(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	l.ProcessBatch(pts)
	res, err := l.Query()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample == nil {
		t.Fatal("L0 query returned no sample")
	}
	if res.Estimate <= 0 {
		t.Fatalf("L0 query returned estimate %g", res.Estimate)
	}
	if l.Space() <= 0 {
		t.Fatalf("Space() = %d", l.Space())
	}

	blob, err := l.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	sk, err := Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := sk.(*L0)
	if !ok {
		t.Fatalf("an L0 blob decoded as %T", sk)
	}
	if restored.Sampler().AcceptSize() != l.Sampler().AcceptSize() {
		t.Fatal("restore changed the accept set")
	}

	// Merge of two half-stream shards must coalesce to the full stream's
	// group structure (exactly, for well-separated data at R=1..R).
	x, _ := NewL0(testOpts(len(pts)))
	y, _ := NewL0(testOpts(len(pts)))
	x.ProcessBatch(pts[:len(pts)/2])
	y.ProcessBatch(pts[len(pts)/2:])
	if err := x.Merge(y); err != nil {
		t.Fatal(err)
	}
	mres, err := x.Query()
	if err != nil {
		t.Fatal(err)
	}
	if mres.Sample == nil {
		t.Fatal("merged sketch returned no sample")
	}
	if err := x.Merge(NewKMV(16, 1)); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("cross-type merge error = %v, want ErrIncompatible", err)
	}
}

func TestF0EstimateAndMerge(t *testing.T) {
	const groups = 200
	pts := testStream(groups, 6, 3)
	whole, err := NewF0(testOpts(len(pts)), 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	whole.ProcessBatch(pts)
	res, err := whole.Query()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-groups)/groups > 0.35 {
		t.Fatalf("F0 estimate %g for %d groups", res.Estimate, groups)
	}

	left, _ := NewF0(testOpts(len(pts)), 0.2, 9)
	right, _ := NewF0(testOpts(len(pts)), 0.2, 9)
	left.ProcessBatch(pts[:len(pts)/2])
	right.ProcessBatch(pts[len(pts)/2:])
	if err := left.Merge(right); err != nil {
		t.Fatal(err)
	}
	mres, err := left.Query()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mres.Estimate-res.Estimate)/res.Estimate > 0.25 {
		t.Fatalf("merged F0 %g vs whole-stream %g", mres.Estimate, res.Estimate)
	}
}

func TestWindowSketches(t *testing.T) {
	pts := testStream(50, 8, 4)
	win := window.Window{Kind: window.Sequence, W: 128}
	wl, err := NewWindowL0(testOpts(len(pts)), win)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := NewWindowF0(core.Options{Alpha: 1, Dim: 2, Seed: 5, Kappa: 1, StreamBound: 16}, win, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wl.ProcessBatch(pts)
	wf.ProcessBatch(pts)
	if res, err := wl.Query(); err != nil || res.Sample == nil {
		t.Fatalf("window query: res=%+v err=%v", res, err)
	}
	if res, err := wf.Query(); err != nil || res.Estimate <= 0 {
		t.Fatalf("window F0 query: res=%+v err=%v", res, err)
	}
	if _, err := wl.Serialize(); !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("window serialize error = %v", err)
	}
}

func TestBaselineSketchesMergeToUnion(t *testing.T) {
	pts := testStream(300, 1, 6) // no near-duplicates: baselines count points
	mk := func() []Mergeable {
		return []Mergeable{
			NewKMV(64, 7),
			NewFM(32, 7),
			NewHyperLogLog(10, 7),
			NewLinearCounting(1<<12, 7),
		}
	}
	whole, sharded := mk(), mk()
	for i, sk := range whole {
		sk.ProcessBatch(pts)
		a, b := sharded[i], mk()[i]
		a.ProcessBatch(pts[:len(pts)/2])
		b.ProcessBatch(pts[len(pts)/2:])
		if err := a.Merge(b); err != nil {
			t.Fatalf("sketch %d merge: %v", i, err)
		}
		wres, err := sk.Query()
		if err != nil {
			t.Fatal(err)
		}
		mres, err := a.Query()
		if err != nil {
			t.Fatal(err)
		}
		if wres.Estimate != mres.Estimate {
			t.Fatalf("sketch %d: merged estimate %g != whole-stream estimate %g",
				i, mres.Estimate, wres.Estimate)
		}
	}

	r := NewReservoir(8, 9)
	r.ProcessBatch(pts)
	if res, err := r.Query(); err != nil || res.Sample == nil || res.Estimate >= 0 {
		t.Fatalf("reservoir query: res=%+v err=%v", res, err)
	}
}
