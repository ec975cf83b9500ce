package telemetry

// HDR-style latency histogram: log-linear buckets (one octave per power
// of two, histSubBuckets linear sub-buckets per octave), so a bucket's
// upper bound — the le label /metrics exposes — is within
// 1/histSubBuckets of every sample it holds, across the full
// nanosecond-to-minutes range in constant memory. All recording is
// atomic: concurrent handlers share one histogram per stage with no
// locks on the hot path.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histSubBits sets the linear resolution within one octave: 2^histSubBits
// sub-buckets, i.e. ≤ 1/32 ≈ 3% relative bucket width.
const histSubBits = 5

// histSubBuckets is the number of linear sub-buckets per octave.
const histSubBuckets = 1 << histSubBits

// histBuckets bounds the bucket array: 64 octaves cover every int64
// nanosecond value.
const histBuckets = 64 * histSubBuckets

// Histogram records latency samples into log-linear buckets. The zero
// value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubBuckets {
		return int(v) // the first octaves are exact
	}
	octave := bits.Len64(uint64(v)) - 1 // floor(log2 v), ≥ histSubBits
	sub := int(v>>(octave-histSubBits)) - histSubBuckets
	return (octave-histSubBits+1)*histSubBuckets + sub
}

// bucketUpper is the largest value mapping to bucket i — the le bound
// the exposition reports, so a bucket errs toward overstating latency
// rather than hiding it.
func bucketUpper(i int) int64 {
	if i < histSubBuckets {
		return int64(i)
	}
	octave := i/histSubBuckets - 1 + histSubBits
	sub := int64(i%histSubBuckets) + histSubBuckets
	return (sub+1)<<(octave-histSubBits) - 1
}

// Record adds one latency sample. Negative durations count as zero.
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all recorded samples in nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// EachBucket calls fn once per non-empty bucket in ascending order with
// the bucket's upper bound in nanoseconds and the cumulative sample
// count up to and including it — the Prometheus-exposition view of the
// histogram. The final cumulative value is the count the same pass
// observed, so a scrape's +Inf bucket always equals its sample count
// even under concurrent recording.
func (h *Histogram) EachBucket(fn func(upperNS, cumulative int64)) {
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		fn(bucketUpper(i), cum)
	}
}
