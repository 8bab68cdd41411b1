package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram with atomic counters. Observe is
// lock-free and allocation-free: one binary search over the (immutable)
// bounds, three atomic operations.
type Histogram struct {
	bounds  []float64       // ascending upper bounds; immutable after construction
	buckets []atomic.Uint64 // len(bounds)+1; last bucket is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// NewHistogram builds a standalone histogram from ascending upper bounds
// (nil defaults to LatencyBucketsMs). Use a Registry for exposed metrics;
// this constructor serves internal consumers — the simulators keep private
// latency histograms purely to report quantiles in their results.
func NewHistogram(bounds []float64) *Histogram { return newHistogram(bounds) }

// newHistogram builds a histogram from ascending upper bounds; non-ascending
// inputs are sanitized by dropping out-of-order bounds. nil bounds default to
// LatencyBucketsMs.
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBucketsMs()
	}
	clean := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if len(clean) == 0 || b > clean[len(clean)-1] {
			clean = append(clean, b)
		}
	}
	return &Histogram{
		bounds:  clean,
		buckets: make([]atomic.Uint64, len(clean)+1),
	}
}

// LatencyBucketsMs returns the canonical log-spaced latency bounds in
// milliseconds: powers of two from 50 µs to ~26 s, matching the ms-scale
// per-hop and per-update latency plots of the paper (Figs. 4–6) while still
// resolving the sub-millisecond forwarding costs of the microbenchmarks.
func LatencyBucketsMs() []float64 {
	out := make([]float64, 0, 20)
	for b := 0.05; len(out) < 20; b *= 2 {
		out = append(out, b)
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.observe(v, 1, v, 1) }

// ObserveRepeat records k observations of v and leaves the histogram exactly
// as k Observe(v) calls in a row would, Sum's bits included: it adds v to
// the sum k times, where ObserveN adds v*k, which rounds differently. A
// router's fan-out delivers one packet to k client faces at one instant, so
// it pays one bucket search and one CAS loop instead of k.
func (h *Histogram) ObserveRepeat(v float64, k uint64) { h.observe(v, k, v, k) }

// ObserveN records n observations of value v in one shot — the batch
// counterpart of Observe for replaying pre-aggregated counts. The
// single-threaded simulators bucket millions of delivery latencies into
// plain local counters (three uncontended atomics per delivery would
// dominate their per-delivery arithmetic) and feed the histogram once per
// run, one ObserveN per occupied bucket.
func (h *Histogram) ObserveN(v float64, n uint64) { h.observe(v, n, v*float64(n), 1) }

// observe counts n observations of v and adds add to the sum `times` times
// over.
func (h *Histogram) observe(v float64, n uint64, add float64, times uint64) {
	if n == 0 {
		return
	}
	// Binary search for the first bound >= v; index len(bounds) is +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.buckets[lo].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old)
		for i := uint64(0); i < times; i++ {
			sum += add
		}
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts by
// log-linear interpolation, matching the log-spaced bucket layout: within
// the bucket holding the target rank, the value is interpolated on a
// geometric scale between the bucket's bounds. The first bucket interpolates
// from half its upper bound; ranks landing in the +Inf overflow bucket
// report the final bound (a lower bound on the true value). Returns NaN on
// an empty histogram or q outside [0, 1]. Safe to call concurrently with
// Observe; the answer reflects some recent state.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	counts := h.Snapshot()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	// Target rank in [1, total]; cumulative walk finds its bucket.
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if rank > cum {
			continue
		}
		if i == len(h.bounds) {
			// Overflow bucket is unbounded; the final bound is the best
			// defensible answer.
			return h.bounds[len(h.bounds)-1]
		}
		hi := h.bounds[i]
		lo := hi / 2
		if i > 0 {
			lo = h.bounds[i-1]
		}
		frac := (rank - prev) / float64(c)
		if lo <= 0 {
			// Degenerate non-positive bound: fall back to linear.
			return lo + (hi-lo)*frac
		}
		return lo * math.Pow(hi/lo, frac)
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot returns per-bucket counts (not cumulative); the last entry counts
// observations above the final bound.
func (h *Histogram) Snapshot() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}
