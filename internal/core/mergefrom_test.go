package core

import (
	"math/rand/v2"
	"testing"
)

// TestMergeFromMatchesMerge: the in-place MergeFrom must produce the same
// sketch state as the rebuild-style Merge for the same shard pair.
func TestMergeFromMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 3
	}
	pts, labels := clusters(rng, sizes, 2, 1, 80)
	opts := Options{Alpha: 1, Dim: 2, Seed: 55}
	mk := func() (*Sampler, *Sampler) {
		a, _ := NewSampler(opts)
		b, _ := NewSampler(opts)
		for i, p := range pts {
			if labels[i]%2 == 0 {
				a.Process(p)
			} else {
				b.Process(p)
			}
		}
		return a, b
	}

	a1, b1 := mk()
	rebuilt, err := Merge(a1, b1)
	if err != nil {
		t.Fatal(err)
	}
	mustCheck(t, rebuilt, "Merge")
	a2, b2 := mk()
	mustCheck(t, a2, "the shard stream")
	if err := a2.MergeFrom(b2); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, a2, "MergeFrom")
	mustCheck(t, b2, "MergeFrom (source)")

	if a2.Processed() != rebuilt.Processed() {
		t.Fatalf("processed: in-place %d, rebuilt %d", a2.Processed(), rebuilt.Processed())
	}
	if a2.R() != rebuilt.R() {
		t.Fatalf("rate: in-place %d, rebuilt %d", a2.R(), rebuilt.R())
	}
	if a2.Rehashes() != rebuilt.Rehashes() {
		t.Fatalf("rehash diagnostic: in-place %d, rebuilt %d", a2.Rehashes(), rebuilt.Rehashes())
	}
	if a2.AcceptSize() != rebuilt.AcceptSize() || a2.RejectSize() != rebuilt.RejectSize() {
		t.Fatalf("sets: in-place |Sacc|=%d |Srej|=%d, rebuilt |Sacc|=%d |Srej|=%d",
			a2.AcceptSize(), a2.RejectSize(), rebuilt.AcceptSize(), rebuilt.RejectSize())
	}
	// Same accepted representatives (order may differ).
	reps := map[string]bool{}
	for _, p := range rebuilt.AcceptedReps() {
		reps[p.String()] = true
	}
	for _, p := range a2.AcceptedReps() {
		if !reps[p.String()] {
			t.Fatalf("in-place merge accepted %v, rebuild did not", p)
		}
	}
	// b must be untouched.
	if b2.Processed() != b1.Processed() || b2.AcceptSize() != b1.AcceptSize() {
		t.Fatal("MergeFrom modified its argument")
	}

	// Incompatible options must be rejected.
	c, _ := NewSampler(Options{Alpha: 2, Dim: 2, Seed: 55})
	if err := a2.MergeFrom(c); err == nil {
		t.Fatal("MergeFrom accepted different options")
	}
}
