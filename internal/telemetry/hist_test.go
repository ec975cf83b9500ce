package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(w*1000 + i + 1))
			}
		}(w)
	}
	wg.Wait()
	var last int64
	h.EachBucket(func(_, cum int64) { last = cum })
	if h.Count() != 4000 || last != 4000 {
		t.Fatalf("count %d, final cumulative %d, want 4000 each", h.Count(), last)
	}
	if h.Sum() != 4000*4001/2 {
		t.Fatalf("sum %d, want %d", h.Sum(), 4000*4001/2)
	}
}

// TestHistogramBucketBounds checks the upper bound EachBucket reports
// for each bucket, which /metrics exposes as the le label: every sample
// lies at or below its bucket's bound and within 1/32 of it (exactly
// on it below 32 ns), and the cumulative counts match the samples
// under each bound.
func TestHistogramBucketBounds(t *testing.T) {
	var samples []int64 // ascending
	for v := int64(0); v <= 4096; v++ {
		samples = append(samples, v)
	}
	for k := 13; k < 63; k++ {
		lo := int64(1) << k
		w := lo >> histSubBits // sub-bucket width in this octave
		samples = append(samples, lo, lo+w-1, lo+w, 2*lo-w, 2*lo-1)
	}
	var h Histogram
	for _, v := range samples {
		h.Record(time.Duration(v))
	}
	i := 0
	var prevCum int64
	h.EachBucket(func(upper, cum int64) {
		n := int64(0)
		for ; i < len(samples) && samples[i] <= upper; i++ {
			if v := samples[i]; upper-v > v/histSubBuckets {
				t.Errorf("sample %d reported under le %d: more than 1/%d above it", v, upper, histSubBuckets)
			}
			n++
		}
		if cum-prevCum != n {
			t.Errorf("bucket le %d holds %d samples, %d lie in it", upper, cum-prevCum, n)
		}
		prevCum = cum
	})
	if i != len(samples) || prevCum != int64(len(samples)) {
		t.Fatalf("%d of %d samples under the top bound, final cumulative %d", i, len(samples), prevCum)
	}
}
