package main

import (
	"math"
	"testing"
	"time"
)

// pointOf returns centre(g) shifted by dx in its first coordinate.
func pointOf(g, dim int, dx float64) []float64 {
	p := make([]float64, dim)
	for j := range p {
		p[j] = centre(g, j)
	}
	p[0] += dx
	return p
}

func TestCheckerRejectsOffGroupSamples(t *testing.T) {
	w, _ := findWorkload("cluster-dup")
	in := generate(w, 1, 1)
	c := newChecker(in)
	sent := in.batches()
	g := int(in.groups[0])
	if err := c.checkSample(pointOf(g, w.dim, 0.9*alpha), sent, math.MinInt64); err != nil {
		t.Errorf("a sample within α of a sent group was rejected: %v", err)
	}
	for _, p := range [][]float64{
		pointOf(g, w.dim, 1.5*alpha),                  // beyond α of its centre
		pointOf(g, w.dim, spacing/2),                  // between two centres
		pointOf(g, w.dim, -centre(g, 0)-2*spacing),    // off the grid
		pointOf(g, w.dim, float64(digitBase)*spacing), // off the grid
		{centre(g, 0)},                                // wrong dimension
	} {
		if err := c.checkSample(p, sent, math.MinInt64); err == nil {
			t.Errorf("off-group sample %v was accepted", p)
		}
	}
	// A group first sent in batch f was not yet emitted while only f
	// batches had been sent.
	for h, f := range in.first {
		if f > 0 {
			if err := c.checkSample(pointOf(h, w.dim, 0), int(f), math.MinInt64); err == nil {
				t.Errorf("group %d first sent in batch %d was accepted after %d batches", h, f, f)
			}
			break
		}
	}
}

func TestCheckerRejectsExpiredWindowSamples(t *testing.T) {
	w, _ := findWorkload("cluster-window")
	in := generate(w, 1, 1)
	c := newChecker(in)
	sent := in.batches()
	g := int(in.groups[0])
	newest := int64(math.MinInt64)
	for b := 0; b < sent; b++ {
		for _, h := range in.batchGroups(b) {
			if int(h) == g {
				newest = max(newest, in.stamps[b])
			}
		}
	}
	p := pointOf(g, w.dim, 0)
	if err := c.checkSample(p, sent, newest); err != nil {
		t.Errorf("a sample at the window edge was rejected: %v", err)
	}
	if err := c.checkSample(p, sent, newest+1); err == nil {
		t.Errorf("a sample older than the window edge was accepted")
	}

	t0 := time.Unix(1000, 0)
	acks := []ackPoint{{t0, 100}, {t0.Add(time.Second), 5000}, {t0.Add(2 * time.Second), 9000}}
	due := t0.Add(2*time.Second + staleSlack)
	if got := windowEdge(acks, due, 0, 1000); got != 9000-1000 {
		t.Errorf("window edge of a fresh answer = %d, want %d", got, 9000-1000)
	}
	if got := windowEdge(acks, due, time.Second, 1000); got != 5000-1000 {
		t.Errorf("window edge of a 1 s stale answer = %d, want %d", got, 5000-1000)
	}
	if got := windowEdge(acks, t0, 0, 1000); got != math.MinInt64 {
		t.Errorf("window edge before any ack = %d, want no edge", got)
	}
}

func TestCheckF0(t *testing.T) {
	if _, err := checkF0(1240, 1000); err != nil {
		t.Errorf("estimate within ε rejected: %v", err)
	}
	for _, est := range []float64{1260, 740} {
		if _, err := checkF0(est, 1000); err == nil {
			t.Errorf("estimate %g of 1000 accepted with ε=%g", est, f0Eps)
		}
	}
}
