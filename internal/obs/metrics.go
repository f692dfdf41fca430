package obs

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use and never allocate.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a signed level that can move both ways. The zero value is
// ready to use; all methods are safe for concurrent use and never
// allocate.
type Gauge struct {
	v atomic.Int64
}

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket layout: bucket i counts observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i - 1] (bucket 0 holds v = 0).
// Upper bucket boundaries are therefore 2^i - 1 — powers of two minus
// one — which keeps the bucket index a single bits.Len64 and spans the
// full uint64 range (nanosecond latencies, trial counts, micro-scaled
// half-widths) in histBuckets slots. The last slot absorbs everything
// above 2^(histBuckets-2) and is exposed as +Inf.
const histBuckets = 64

// histShards spreads concurrent writers across independent copies of the
// bucket array; must be a power of two. Shard choice uses the runtime's
// per-thread random state (math/rand/v2 top-level), so the record path
// takes no locks and shares no chooser cache line.
const histShards = 8

type histShard struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	// Pad the shard to a cache-line multiple so neighboring shards' sum
	// fields never share a line.
	_ [56]byte
}

// Histogram is a lock-free histogram over uint64 observations with
// power-of-two bucket boundaries. The zero value is ready to use;
// Observe is safe for concurrent use and never allocates.
type Histogram struct {
	shards [histShards]histShard
}

// bucketIndex returns the slot for observation v.
func bucketIndex(v uint64) int {
	i := bits.Len64(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i as a float64,
// +Inf for the last bucket.
func BucketBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i) - 1)
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	s := &h.shards[rand.Uint32()&(histShards-1)]
	s.counts[bucketIndex(v)].Add(1)
	s.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds; negative durations
// clamp to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// ObserveSince records the time elapsed since t0 in nanoseconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.ObserveDuration(time.Since(t0)) }

// HistogramSnapshot is a merged view of a histogram's shards. Counts is
// per-bucket (not cumulative); Count is the total number of observations
// and Sum their sum. A snapshot taken under concurrent writes is a
// consistent-enough monitoring view: each field is atomically read, but
// fields may straddle an in-flight observation.
type HistogramSnapshot struct {
	Count  uint64
	Sum    uint64
	Counts [histBuckets]uint64
}

// Snapshot merges the shards into one view.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.shards {
		sh := &h.shards[i]
		for b := range sh.counts {
			c := sh.counts[b].Load()
			s.Counts[b] += c
			s.Count += c
		}
		s.Sum += sh.sum.Load()
	}
	return s
}
