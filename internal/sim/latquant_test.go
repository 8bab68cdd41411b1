package sim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/icn-gaming/gcopss/internal/obs"
)

// refLatIndex is the binary search latIndex replaces: the index of the
// first bound >= lat, len(latBounds) for overflow.
func refLatIndex(lat float64) int {
	lo, hi := 0, len(latBounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if lat <= latBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestLatIndexMatchesBinarySearch pins the exponent-based bucketing to the
// reference search on every bound, its adjacent representable values, bucket
// midpoints, and a seeded random sweep — the fix-up step must make the two
// agree everywhere, exact boundaries included.
func TestLatIndexMatchesBinarySearch(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := latIndex(v), refLatIndex(v); got != want {
			t.Errorf("latIndex(%g) = %d, want %d", v, got, want)
		}
	}
	for i, b := range latBounds {
		check(b)
		check(math.Nextafter(b, 0))
		check(math.Nextafter(b, math.Inf(1)))
		lo := b / 2
		if i > 0 {
			lo = latBounds[i-1]
		}
		check((lo + b) / 2)
	}
	check(0)
	check(-1)
	check(1e-300)
	check(latBounds[len(latBounds)-1] * 1000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		check(rng.Float64() * 60000)
		check(math.Exp(rng.Float64()*20 - 6))
	}
}

// TestResultQuantilesMatchHistogram feeds the same latency stream into a
// Result (local bucket counts, replayed at finish) and straight into an
// obs.Histogram; the quantile fields must agree exactly, since Quantile
// only reads bucket counts and both paths bucket identically.
func TestResultQuantilesMatchHistogram(t *testing.T) {
	r := newResult(0)
	h := obs.NewHistogram(nil)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		lat := math.Exp(rng.Float64()*12 - 4)
		r.addLatency(lat)
		h.Observe(lat)
	}
	r.finishLatency()
	if want := h.Quantile(0.5); r.LatencyP50Ms != want {
		t.Errorf("p50 = %g, want %g", r.LatencyP50Ms, want)
	}
	if want := h.Quantile(0.99); r.LatencyP99Ms != want {
		t.Errorf("p99 = %g, want %g", r.LatencyP99Ms, want)
	}
}

// TestResultQuantilesEmpty pins the no-deliveries contract: NaN, not zero.
func TestResultQuantilesEmpty(t *testing.T) {
	var r Result
	r.finishLatency()
	if !math.IsNaN(r.LatencyP50Ms) || !math.IsNaN(r.LatencyP99Ms) {
		t.Errorf("empty result quantiles = %g/%g, want NaN/NaN", r.LatencyP50Ms, r.LatencyP99Ms)
	}
}
