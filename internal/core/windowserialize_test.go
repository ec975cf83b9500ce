package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/window"
)

// TestWindowDecodeUnsortedLevel decodes one 40k-entry level written in
// descending lastStamp order, which a checkpoint written before late
// points kept the expiry order sorted, or a crafted blob, can hold. The
// decode must restore the sorted level, and cost at most 4× the same
// level written in ascending order: filing each entry by a backward scan
// of the level would make it quadratic.
func TestWindowDecodeUnsortedLevel(t *testing.T) {
	const n = 40_000
	opts := Options{Alpha: 1, Dim: 2, Seed: 5, StreamBound: 1 << 20, Kappa: n} // level 0 never splits
	ws, err := NewWindowSampler(opts, window.Window{Kind: window.Time, W: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		ws.ProcessAt(geom.Point{float64(i%200) * 10, float64(i/200) * 10}, int64(i+1))
	}
	if got := ws.levels[0].Size(); got != n {
		t.Fatalf("level 0 holds %d entries, want %d", got, n)
	}
	asc, err := ws.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	slices.Reverse(ws.levels[0].order)
	desc, err := ws.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	decode := func(blob []byte) (time.Duration, *WindowSampler) {
		best := time.Duration(1<<63 - 1)
		var out *WindowSampler
		for range 3 {
			start := time.Now()
			d, err := UnmarshalWindowSampler(blob)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
			out = d
		}
		return best, out
	}
	tAsc, _ := decode(asc)
	tDesc, d := decode(desc)
	again, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, asc) {
		t.Fatal("descending level did not decode to the sorted sketch")
	}
	ratio := float64(tDesc) / float64(tAsc)
	if ratio > 4 {
		t.Fatalf("descending level decodes in %v, %.1f× the ascending %v", tDesc, ratio, tAsc)
	}
	t.Logf("descending %v, ascending %v: %.2f×", tDesc, tAsc, ratio)
}
