// Package obs is the dependency-free observability core of the serving
// stack: atomic counters, gauges, and fixed-boundary log2-bucketed
// histograms collected in a named registry (registry.go renders it in the
// Prometheus text exposition format), plus a cheap span/stage timer the hot
// layers thread through their tick paths.
//
// The design constraint is that instrumentation must be free when
// unobserved and near-free when observed:
//
//   - Every instrument method is nil-safe: a nil *Counter, *Gauge,
//     *Histogram, or *Stage no-ops with zero allocations and no atomics, so
//     a layer that holds no instruments runs the exact uninstrumented code
//     path, and a Stage over a nil histogram keeps only its last duration.
//   - Observing is lock-free: one atomic add for counters and gauges, two
//     for a histogram (bucket + sum), three for a stage (plus the
//     last-value store). No instrument ever allocates after creation.
//   - Bucket boundaries are fixed powers of two, so classifying a value is
//     one bits.Len64 — no search, no per-histogram boundary slice.
//
// Histograms count unsigned values (nanoseconds, bytes, queue depths) in
// NumBuckets cumulative-ready buckets: bucket i < NumBuckets−1 holds values
// v with 2^(i−1) < v ≤ 2^i (bucket 0 holds v ≤ 1), and the last bucket is
// the +Inf catch-all. Quantiles are derived from the bucket counts with
// linear interpolation inside the containing bucket, so a reported p99 is
// exact to within one power-of-two bucket — the right fidelity for alerting
// thresholds, at a fixed 41-word footprint per histogram.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of every Histogram: boundaries
// 2^0 … 2^(NumBuckets−2) plus the +Inf catch-all. 40 buckets span 1 ns to
// ~4.6 minutes for durations and 1 byte to 256 GiB for sizes — beyond either
// end the +Inf bucket still counts the observation.
const NumBuckets = 40

// bucketOf classifies a value: bucket i holds v ∈ (2^(i−1), 2^i], bucket 0
// holds v ≤ 1, and everything past the last finite boundary lands in the
// +Inf bucket.
func bucketOf(v uint64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(v - 1)
	if b > NumBuckets-2 {
		return NumBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper boundary of bucket i as a float
// (math.Inf for the last bucket) — the le value of the Prometheus
// exposition.
func BucketBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1) << uint(i))
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready; all methods are nil-safe no-ops.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready; all
// methods are nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-boundary log2-bucketed distribution of unsigned
// values. The zero value is ready; Observe is two atomic adds and all
// methods are nil-safe no-ops. Buckets are shared across writers without
// locks, so concurrent Observe calls and Snapshot reads are race-clean
// (a snapshot is per-bucket atomic, not a consistent cut — fine for
// monitoring).
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds (negative durations
// clamp to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// HistSnapshot is one histogram's state at an instant: per-bucket counts
// (non-cumulative), their total, and the sum of observed values.
type HistSnapshot struct {
	Counts [NumBuckets]uint64
	Total  uint64
	Sum    uint64
}

// Snapshot reads the histogram (per-bucket atomically; the set is not one
// atomic cut, which is fine for monitoring). A nil histogram snapshots as
// empty.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range s.Counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Total += c
	}
	s.Sum = h.sum.Load()
	return s
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var t uint64
	for i := range h.counts {
		t += h.counts[i].Load()
	}
	return t
}

// Quantile derives the q-quantile (q ∈ [0, 1]) from the bucket counts:
// the bucket containing the rank is located by a cumulative walk and the
// value is linearly interpolated between its boundaries, so the estimate
// is exact to within one power-of-two bucket. Returns 0 for an empty
// snapshot; the +Inf bucket reports its lower boundary (there is no upper
// edge to interpolate toward).
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		if i >= NumBuckets-1 {
			// +Inf bucket: report the last finite boundary.
			return BucketBound(NumBuckets - 2)
		}
		hi := BucketBound(i)
		lo := 0.0
		if i > 0 {
			lo = BucketBound(i - 1)
		}
		// Position of the rank inside this bucket's count mass.
		pos := float64(rank-(cum-c)) / float64(c)
		return lo + pos*(hi-lo)
	}
	return BucketBound(NumBuckets - 2)
}

// Mean returns the arithmetic mean of the observed values (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Total)
}

// Stage is one named step of a pipeline: a histogram of its durations plus
// the most recent duration, which slow-tick logging reads back without
// touching the distribution. All methods are nil-safe, so an uninstrumented
// layer holds nil stages and pays nothing.
type Stage struct {
	hist *Histogram
	last atomic.Int64
}

// NewStage wraps a histogram (which may be nil: the stage then tracks only
// the last duration — what a CLI slow-tick breakdown needs without a
// registry).
func NewStage(h *Histogram) *Stage { return &Stage{hist: h} }

// Observe records one stage duration.
func (s *Stage) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.last.Store(int64(d))
	s.hist.ObserveDuration(d)
}

// Last returns the most recently observed duration (0 on nil or before the
// first observation).
func (s *Stage) Last() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.last.Load())
}

// Hist returns the stage's histogram (nil when unset).
func (s *Stage) Hist() *Histogram {
	if s == nil {
		return nil
	}
	return s.hist
}

// Stopwatch measures consecutive pipeline stages: Start marks the origin,
// each Lap records the time since the previous mark into a stage and
// re-marks. The zero value is usable after Start. Callers on hot paths
// guard the Start/Lap pair behind one nil check of their metrics struct so
// the unobserved path never calls time.Now.
type Stopwatch struct {
	t time.Time
}

// Start (re)marks the stopwatch origin.
func (sw *Stopwatch) Start() { sw.t = time.Now() }

// Lap records the time since the last mark into s (nil-safe) and re-marks,
// returning the lap duration.
func (sw *Stopwatch) Lap(s *Stage) time.Duration {
	now := time.Now()
	d := now.Sub(sw.t)
	sw.t = now
	s.Observe(d)
	return d
}
