package obs

import (
	"io"
	"testing"
)

// The acceptance bar for the telemetry layer: the per-event record paths —
// counter increment, histogram observation, and (in internal/obs/trace) the
// packet-path ring append — must not allocate, so instrumenting the
// router's hot paths costs atomic operations only. Run with -benchmem;
// every BenchmarkObs* must report 0 allocs/op.

func BenchmarkObsCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_hist_ms", LatencyBucketsMs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%8192) * 0.01)
	}
}

// BenchmarkObsWriteText sizes the exposition cost (allocations allowed — it
// runs per scrape, not per packet).
func BenchmarkObsWriteText(b *testing.B) {
	reg := NewRegistry()
	reg.Counter("multicast_in").Add(100)
	reg.Gauge("st_entries").Set(62)
	reg.Histogram("delivery_latency_ms", LatencyBucketsMs()).Observe(3.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := reg.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
