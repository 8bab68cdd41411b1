package trace

import "testing"

// The packet-path record is on every router step, so both ring outcomes —
// a record kept and an untraced record discarded under sampling — must
// report 0 allocs/op with -benchmem (`make bench` prints them).

func BenchmarkRingAppend(b *testing.B) {
	r := NewTracer(0, 0, 1024).Ring("R1")
	h := Hop{TraceID: 9, At: 12345, Event: HopMulticast, Face: 3, CD: "/3/4", Name: "/rp1/3/4", Origin: "player17"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.At = int64(i)
		r.Append(h)
	}
}

func BenchmarkRingAppendUntraced(b *testing.B) {
	r := NewTracer(16, 0, 1024).Ring("R1")
	h := Hop{Event: HopFanOut, Face: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Append(h)
	}
}
