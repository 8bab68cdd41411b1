package telemetry

import (
	"internal/obs"
)

const goodConst = "router.multicast_in"
const badConst = "Router-Multicast"

func goodLiterals(reg *obs.Registry) {
	reg.Counter("multicast_in")
	reg.Gauge("st_entries")
	reg.GaugeFunc("pit_entries", func() float64 { return 0 })
	reg.Histogram("delivery_latency_ms", nil)
	reg.Counter(goodConst)           // named constants are compile-time too
	reg.Counter("ndn." + "fib_hits") // constant-folded concatenation
}

func badRuntimeName(reg *obs.Registry, component string) {
	reg.Counter(component + ".dropped") // want "must be a compile-time string constant"
}

func badRuntimeHistogram(reg *obs.Registry, names []string) {
	reg.Histogram(names[0], nil) // want "must be a compile-time string constant"
}

func badGrammar(reg *obs.Registry) {
	reg.Counter("Multicast_In")    // want "does not match"
	reg.Gauge("")                  // want "does not match"
	reg.Histogram("1latency", nil) // want "does not match"
	reg.Counter(badConst)          // want "does not match"
}

func allowed(reg *obs.Registry, dynamic string) {
	//lint:allow obsnames generated bridge for a legacy exporter
	reg.Counter(dynamic)
}

// notTheRegistry must not fire: same method names, different receiver type.
type fake struct{}

func (fake) Counter(name string) int { return 0 }

func unrelated(f fake, s string) int { return f.Counter(s) }
