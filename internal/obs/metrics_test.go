package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestBucketIndexAndBound(t *testing.T) {
	cases := []struct {
		v   uint64
		idx int
		hi  float64 // inclusive upper bound of the bucket v lands in
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 2, 3},
		{4, 3, 7},
		{1023, 10, 1023},
		{1024, 11, 2047},
		{math.MaxUint64, 63, math.Inf(1)},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.idx {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.idx)
		}
		if got := BucketBound(tc.idx); got != tc.hi {
			t.Errorf("BucketBound(%d) = %g, want %g", tc.idx, got, tc.hi)
		}
		// The invariant exposition relies on: v never exceeds its bucket's
		// upper bound.
		if float64(tc.v) > BucketBound(tc.idx) {
			t.Errorf("v=%d above its bucket bound %g", tc.v, BucketBound(tc.idx))
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 5, 5, 1 << 40} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if want := uint64(0 + 1 + 5 + 5 + 1<<40); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[3] != 2 || s.Counts[41] != 1 {
		t.Fatalf("bucket spread wrong: %v", s.Counts)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(3 * time.Nanosecond)
	h.ObserveDuration(-time.Second) // clamps to 0
	h.ObserveSince(time.Now())
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Counts[2] != 1 { // the 3ns observation
		t.Fatalf("3ns bucket = %d, want 1", s.Counts[2])
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines; the
// merged snapshot must account for every observation exactly once (and
// the race detector gets its shot at the sharding).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(i))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	if want := uint64(goroutines) * (per * (per - 1) / 2); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
}
