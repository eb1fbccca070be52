package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// DefaultBuckets is the histogram resolution used when NewHistogram is
// given a non-positive bucket count. It matches the scan engine's original
// latency histogram (32 power-of-two buckets), whose quantile behavior this
// package inherited verbatim.
const DefaultBuckets = 32

// Histogram is a log-linear (power-of-two) histogram over non-negative
// int64 values: bucket i counts values in [2^(i-1), 2^i) units, with bucket
// 0 for sub-unit values and the last bucket absorbing everything larger.
// The unit is a divisor applied before bucketing — int64(time.Millisecond)
// for nanosecond latencies bucketed per millisecond, 1 for byte sizes
// bucketed per byte.
//
// Observe is lock-free and allocation-free: one bits.Len64 plus five atomic
// operations. Min/max/sum/count are tracked exactly; quantiles are
// approximate, each falling at the geometric midpoint of its bucket —
// exactly the accounting internal/scan's latency histogram used before it
// became a view over this type.
type Histogram struct {
	unit    int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets []atomic.Int64
}

// NewHistogram returns a histogram with the given unit (values are divided
// by it before bucketing; non-positive means 1) and bucket count
// (non-positive means DefaultBuckets).
func NewHistogram(unit int64, buckets int) *Histogram {
	if unit <= 0 {
		unit = 1
	}
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	h := &Histogram{unit: unit, buckets: make([]atomic.Int64, buckets)}
	h.min.Store(math.MaxInt64)
	return h
}

// BucketOf returns the bucket index value v falls into for the given unit
// and bucket count; it is the shared bucketing rule every consumer delegates
// to.
func BucketOf(v, unit int64, buckets int) int {
	if v < 0 {
		v = 0
	}
	if unit <= 0 {
		unit = 1
	}
	b := bits.Len64(uint64(v / unit))
	if b >= buckets {
		b = buckets - 1
	}
	return b
}

// Observe records one value. Negative values clamp to zero (elapsed-time
// callers can see tiny negative durations from clock adjustments).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[BucketOf(v, h.unit, len(h.buckets))].Add(1)
}

// Snapshot returns the histogram's current state. Concurrent observes may
// or may not be included.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Unit:    h.unit,
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]int64, len(h.buckets)),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time, serializable copy of a Histogram
// (the census trailer embeds these).
type HistogramSnapshot struct {
	// Unit is the bucketing divisor (bucket i spans [2^(i-1), 2^i) units).
	Unit int64 `json:"unit"`
	// Count and Sum are exact totals over all observations.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Min and Max are exact observed extremes (zero when Count is 0).
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Buckets holds per-bucket observation counts.
	Buckets []int64 `json:"buckets"`
}

// Mean returns the exact mean observation (0 when empty).
func (s *HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Quantile locates quantile q (0..1) in the power-of-two histogram by
// nearest-rank walk, returning the geometric midpoint of the bucket the
// rank falls in, in raw value units. This reproduces internal/scan's
// original bucketQuantile exactly: bucket 0 answers half a unit, bucket i
// answers sqrt(2^(i-1) * 2^i) units. Callers wanting quantiles that never
// contradict Min/Max use QuantileClamped.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	unit := s.Unit
	if unit <= 0 {
		unit = 1
	}
	var seen int64
	var last int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if i == 0 {
			last = unit / 2
		} else {
			// Geometric midpoint of [2^(i-1), 2^i) units.
			mid := math.Sqrt(math.Pow(2, float64(i-1)) * math.Pow(2, float64(i)))
			last = int64(mid * float64(unit))
		}
		seen += n
		if seen >= rank {
			return last
		}
	}
	return last
}

// QuantileClamped is Quantile clamped into the exact observed [Min, Max]:
// a bucket midpoint can land outside that range, and a summary whose p50
// sits below its min contradicts itself.
func (s *HistogramSnapshot) QuantileClamped(q float64) int64 {
	return min(max(s.Quantile(q), s.Min), s.Max)
}
