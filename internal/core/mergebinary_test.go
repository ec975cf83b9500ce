package core

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/geom"
)

// foldStream returns n points of the given shape: "separated" groups
// 10 apart with up to three near-duplicates each, or "chained" points
// 0.6 apart along rows, so that α-balls overlap and groups are not
// separated.
func foldStream(shape string, n int, seed uint64) []geom.Point {
	rng := rand.New(rand.NewPCG(seed, 3))
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		g := rng.IntN(n)
		switch shape {
		case "separated":
			c := geom.Point{float64(g%97) * 10, float64(g/97) * 10}
			for range 1 + rng.IntN(3) {
				pts = append(pts, geom.Point{c[0] + (rng.Float64()-0.5)*0.4, c[1] + (rng.Float64()-0.5)*0.4})
			}
		case "chained":
			pts = append(pts, geom.Point{float64(g%400) * 0.6, float64(g/400) * 0.6})
		}
	}
	return pts[:n]
}

// foldBlobs feeds pts to k samplers and returns their l0s2 blobs. The
// first sampler, the fold receiver, takes the first half of the stream
// besides its share of the rest, so its rate ends up above the others'.
func foldBlobs(t *testing.T, opts Options, pts []geom.Point, k int) [][]byte {
	t.Helper()
	parts := make([]*Sampler, k)
	for i := range parts {
		s, err := NewSampler(opts)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = s
	}
	for i, p := range pts {
		j := i % k
		if i < len(pts)/2 {
			j = 0
		}
		parts[j].Process(p)
	}
	blobs := make([][]byte, k)
	for i, s := range parts {
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = b
	}
	return blobs
}

// samplerState renders what a sampler answers and serializes: its bytes,
// R, n, rehashes, both representative sets and a run of queries.
func samplerState(t *testing.T, s *Sampler) string {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	q, _ := s.QueryK(8)
	return fmt.Sprintf("%x R=%d n=%d rehash=%d acc=%v rej=%v q=%v",
		b, s.R(), s.Processed(), s.Rehashes(), s.AcceptedReps(), s.RejectedReps(), q)
}

// TestMergeBinaryMatchesMergeFrom folds 3 and 5 blobs into the first
// decoded one twice, by MergeBinary and by UnmarshalSampler + MergeFrom,
// on well-separated and on chained data, with and without
// RandomRepresentative, and requires the same state, bytes and answers.
// The receiver's rate is above the other blobs', and without
// RandomRepresentative the test checks that some entry of theirs falls
// below it: the skip path runs.
func TestMergeBinaryMatchesMergeFrom(t *testing.T) {
	for _, shape := range []string{"separated", "chained"} {
		for _, rr := range []bool{false, true} {
			for _, k := range []int{3, 5} {
				t.Run(fmt.Sprintf("%s/rr=%v/k=%d", shape, rr, k), func(t *testing.T) {
					opts := Options{Alpha: 1, Dim: 2, Seed: 17, StreamBound: 1 << 16, RandomRepresentative: rr}
					blobs := foldBlobs(t, opts, foldStream(shape, 20000, uint64(k)), k)
					want, err := UnmarshalSampler(blobs[0])
					if err != nil {
						t.Fatal(err)
					}
					got, err := UnmarshalSampler(blobs[0])
					if err != nil {
						t.Fatal(err)
					}
					skippable := 0
					for _, blob := range blobs[1:] {
						b, err := UnmarshalSampler(blob)
						if err != nil {
							t.Fatal(err)
						}
						rate := max(got.r, b.r)
						for _, e := range b.entries {
							if !sampledAt(e.nearLevel(b.ls), rate) {
								skippable++
							}
						}
						if err := want.MergeFrom(b); err != nil {
							t.Fatal(err)
						}
						if err := got.MergeBinary(blob); err != nil {
							t.Fatal(err)
						}
						mustCheck(t, want, "MergeFrom")
						mustCheck(t, got, "MergeBinary")
					}
					if !rr && skippable == 0 {
						t.Fatal("no entry fell below the receiver's rate: the skip path did not run")
					}
					if g, w := samplerState(t, got), samplerState(t, want); g != w {
						t.Fatalf("MergeBinary state differs from UnmarshalSampler + MergeFrom:\n got %.300s\nwant %.300s", g, w)
					}
					t.Logf("R=%d |Sacc|=%d |Srej|=%d, %d entries below the receiver's rate", got.R(), got.AcceptSize(), got.RejectSize(), skippable)
				})
			}
		}
	}
}

// wireEntry is one l0s2 entry's fields, for crafting blobs.
type wireEntry struct {
	own, near uint8
	wit       int // written when near > own
	pick      bool
	stamp     int64
	rep       geom.Point
}

// craftL0s2 writes s's header and the given entries in the l0s2 layout.
func craftL0s2(s *Sampler, es []wireEntry) []byte {
	w := binWriter{buf: []byte(samplerMagic)}
	w.options(s.opts)
	w.u64(s.r)
	w.varint(s.n)
	w.uvarint(uint64(s.rehash))
	w.uvarint(uint64(s.space.Peak()))
	w.uvarint(uint64(len(es)))
	for _, e := range es {
		head := e.own
		if e.pick {
			head |= pickFollows
		}
		w.u8(head)
		w.u8(e.near)
		if e.near > e.own {
			w.uvarint(uint64(e.wit))
		}
		w.varint(e.stamp)
		if s.opts.RandomRepresentative {
			w.varint(1)
		}
		w.coords(e.rep)
		if e.pick {
			w.coords(e.rep)
		}
	}
	return w.buf
}

// TestMergeBinaryRefusesCraftedEntries changes one field of one entry of
// an honest blob and requires both decoders to refuse it, and
// MergeBinary to leave its receiver as it was.
func TestMergeBinaryRefusesCraftedEntries(t *testing.T) {
	opts := Options{Alpha: 1, Dim: 2, Seed: 23, StreamBound: 1 << 12, Kappa: 2}
	src, err := NewSampler(opts)
	if err != nil {
		t.Fatal(err)
	}
	src.ProcessBatch(foldStream("separated", 3000, 5))
	honest := make([]wireEntry, len(src.entries))
	for i, e := range src.entries {
		honest[i] = wireEntry{own: e.ownLevel(src.ls), near: e.nearLevel(src.ls), wit: e.witnessAt(src.ls), stamp: e.stamp, rep: e.rep}
	}
	if src.r < 4 {
		t.Fatalf("R=%d: the stream must raise the rate for rejected entries to exist", src.r)
	}
	// find returns the index of the first honest entry that ok accepts.
	find := func(what string, ok func(wireEntry) bool) int {
		for i, e := range honest {
			if ok(e) {
				return i
			}
		}
		t.Fatalf("no entry %s", what)
		return -1
	}
	logR := uint8(bits.TrailingZeros64(src.r))
	withWit := find("with a witness", func(e wireEntry) bool { return e.near > e.own })
	rejected := find("rejected", func(e wireEntry) bool { return e.own < logR })
	positive := find("with a positive level", func(e wireEntry) bool { return e.own > 0 })
	cases := []struct {
		name string
		i    int
		mut  func(*wireEntry)
		want string
	}{
		{"own-level-off-by-one", withWit, func(e *wireEntry) { e.own++ }, "its cell hashes to"},
		{"witness-out-of-range", withWit, func(e *wireEntry) { e.wit = 1 << 20 }, "names witness"},
		{"witness-is-own-cell", withWit, func(e *wireEntry) { e.wit = 0 }, "names witness"},
		{"witness-level-mismatch", withWit, func(e *wireEntry) { e.near++ }, "its witness hashes to"},
		{"near-below-own", positive, func(e *wireEntry) { e.near = e.own - 1 }, "near level"},
		{"unsampled-reject", rejected, func(e *wireEntry) { e.near = e.own }, "no cell of adj(rep) sampled"},
		{"pick-without-reservoir", 0, func(e *wireEntry) { e.pick = true }, "pick on a sketch without RandomRepresentative"},
		{"stamp-out-of-order", 1, func(e *wireEntry) { e.stamp = honest[0].stamp - 1 }, "follows one stamped"},
		{"stamp-zero", 0, func(e *wireEntry) { e.stamp = 0 }, "outside [1,"},
		{"stamp-past-processed", len(honest) - 1, func(e *wireEntry) { e.stamp = src.n + 1 }, "outside [1,"},
	}
	if _, err := UnmarshalSampler(craftL0s2(src, honest)); err != nil {
		t.Fatalf("honest crafted blob refused: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			es := append([]wireEntry(nil), honest...)
			tc.mut(&es[tc.i])
			blob := craftL0s2(src, es)
			if _, err := UnmarshalSampler(blob); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("UnmarshalSampler error %v, want one naming %q", err, tc.want)
			}
			recv, err := NewSampler(opts)
			if err != nil {
				t.Fatal(err)
			}
			recv.ProcessBatch(foldStream("separated", 20, 6))
			before, _ := recv.MarshalBinary()
			if err := recv.MergeBinary(blob); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("MergeBinary error %v, want one naming %q", err, tc.want)
			}
			if after, _ := recv.MarshalBinary(); !bytes.Equal(before, after) {
				t.Fatal("a refused MergeBinary changed its receiver")
			}
			mustCheck(t, recv, "a refused MergeBinary")
		})
	}
}

// TestMergeRefusesBadPointCounts: a blob that declares a negative point
// count is refused by both decoders, and a sketch that declares so many
// points that the merged count would overflow by MergeBinary, MergeFrom
// and Merge; the receiver is left as it was. Merged into it, either
// count would leave entries stamped outside [1, Processed()] or out of
// stamp order, and the receiver's own bytes would no longer decode.
func TestMergeRefusesBadPointCounts(t *testing.T) {
	opts := Options{Alpha: 1, Dim: 2, Seed: 23, StreamBound: 1 << 12}
	src, err := NewSampler(opts)
	if err != nil {
		t.Fatal(err)
	}
	src.ProcessBatch(foldStream("separated", 300, 5))
	src.n = math.MaxInt64 - 10
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnmarshalSampler(blob)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := NewSampler(opts)
	if err != nil {
		t.Fatal(err)
	}
	recv.ProcessBatch(foldStream("separated", 100, 6))
	before, _ := recv.MarshalBinary()
	empty, err := NewSampler(opts)
	if err != nil {
		t.Fatal(err)
	}
	empty.n = -5
	negative, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSampler(negative); err == nil || !strings.Contains(err.Error(), "points processed") {
		t.Fatalf("UnmarshalSampler error %v, want a negative point count", err)
	}
	if err := recv.MergeBinary(negative); err == nil || !strings.Contains(err.Error(), "points processed") {
		t.Fatalf("MergeBinary error %v, want a negative point count", err)
	}
	if err := recv.MergeBinary(blob); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("MergeBinary error %v, want a point-count overflow", err)
	}
	if err := recv.MergeFrom(b); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("MergeFrom error %v, want a point-count overflow", err)
	}
	if _, err := Merge(recv, b); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("Merge error %v, want a point-count overflow", err)
	}
	if after, _ := recv.MarshalBinary(); !bytes.Equal(before, after) {
		t.Fatal("a refused merge changed its receiver")
	}
	mustCheck(t, recv, "the refused merges")
}
