package main

// Answer checks. Every query answer is checked against the generator's
// ground truth; a wrong answer counts as a failed operation.

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// staleSlack is added to the staleness a windowed answer reports before
// its window edge is checked: it covers the push hop between a daemon's
// ingest ack and the gateway's watcher, and the scatter round that built
// the fold.
const staleSlack = 500 * time.Millisecond

// checker verifies samples against the stream.
type checker struct {
	in *inputs
	// Window workloads: per group, the batches holding it (ascending) and
	// the running maximum of their stamps.
	occBatch [][]int32
	occMax   [][]int64
}

func newChecker(in *inputs) *checker {
	c := &checker{in: in}
	if in.stamps == nil {
		return c
	}
	c.occBatch = make([][]int32, in.w.groups)
	c.occMax = make([][]int64, in.w.groups)
	for b := 0; b < in.batches(); b++ {
		for _, g := range in.batchGroups(b) {
			ob := c.occBatch[g]
			if n := len(ob); n > 0 && ob[n-1] == int32(b) {
				continue
			}
			m := in.stamps[b]
			if n := len(c.occMax[g]); n > 0 {
				m = max(m, c.occMax[g][n-1])
			}
			c.occBatch[g] = append(ob, int32(b))
			c.occMax[g] = append(c.occMax[g], m)
		}
	}
	return c
}

// checkSample accepts p when it lies within α of the centre of a group
// that appears in the first sent batches and, for window workloads, when
// that group's newest stamp among those batches is at least minStamp.
func (c *checker) checkSample(p []float64, sent int, minStamp int64) error {
	if len(p) != c.in.w.dim {
		return fmt.Errorf("sample %v has %d coordinates, want %d", p, len(p), c.in.w.dim)
	}
	g := groupOf(p, c.in.w.groups)
	if g < 0 {
		return fmt.Errorf("sample %v is not within α of any group centre", p)
	}
	if f := c.in.first[g]; f < 0 || int(f) >= sent {
		return fmt.Errorf("sample %v is group %d, first sent in batch %d, but only %d batches had been sent", p, g, f, sent)
	}
	if c.occBatch == nil {
		return nil
	}
	ob := c.occBatch[g]
	i := sort.Search(len(ob), func(i int) bool { return int(ob[i]) >= sent })
	if newest := c.occMax[g][i-1]; newest < minStamp {
		return fmt.Errorf("sample %v is group %d, newest stamp %d, older than the window edge %d", p, g, newest, minStamp)
	}
	return nil
}

// checkF0 accepts an estimate within (1±ε) of the exact distinct count
// and returns its relative error.
func checkF0(estimate float64, exact int) (float64, error) {
	if exact == 0 {
		return 0, fmt.Errorf("no groups sent")
	}
	rel := math.Abs(estimate-float64(exact)) / float64(exact)
	if rel > f0Eps {
		return rel, fmt.Errorf("f0 estimate %.0f is off the exact %d distinct groups by %.3f > ε=%.2f", estimate, exact, rel, f0Eps)
	}
	return rel, nil
}

// ackPoint is one acknowledged window batch: when the ack arrived and the
// newest stamp acknowledged so far.
type ackPoint struct {
	at       time.Time
	maxStamp int64
}

// windowEdge returns the oldest stamp a windowed answer may still hold:
// the newest stamp acknowledged before the fold it was served from could
// have been built (the query's due time less the staleness it reports and
// staleSlack), minus the window width. Before any ack it returns MinInt64.
func windowEdge(acks []ackPoint, due time.Time, stale time.Duration, width int64) int64 {
	ref := due.Add(-stale - staleSlack)
	i := sort.Search(len(acks), func(i int) bool { return acks[i].at.After(ref) })
	if i == 0 {
		return math.MinInt64
	}
	return acks[i-1].maxStamp - width
}
