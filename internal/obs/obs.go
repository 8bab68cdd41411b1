// Package obs is the telemetry layer of the G-COPSS reproduction: a
// stdlib-only, allocation-conscious metrics registry, the HTTP debug
// endpoint, and a structured logger. The packet-path recorder is its
// subpackage trace.
//
// The design follows the shape of an NDN forwarder's management plane (per
// the NFD counters and COPSS-lite's per-node packet accounting): hot paths
// hold pre-resolved handles (*Counter, *Gauge, *Histogram) obtained once at
// setup, so recording is a single atomic operation with zero heap
// allocations; the Registry's maps are only touched at construction and
// exposition time.
//
// Concurrency: Counter, Gauge and Histogram are safe for concurrent use
// (atomics). GaugeFunc callbacks are evaluated during exposition and must be
// synchronized by the host if they read non-atomic state — the TCP daemon
// serializes exposition through its event loop for exactly this reason.
//
// Metric names are constrained to ^[a-z][a-z0-9_.]*$ and must be
// compile-time literals at every Registry constructor call site (enforced by
// the gcopsslint obsnames checker), so the metric population of a binary is
// statically known and hot paths never build names dynamically.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (table sizes, queue depths).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind tags what a registered name refers to, so a name cannot be
// registered twice with different types.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindGaugeFunc:
		return "gauge (func)"
	case kindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// Registry holds named metrics. Constructors are idempotent: requesting an
// existing name of the same kind returns the already-registered metric, so
// components sharing a registry can resolve handles independently.
//
// Constructors panic on an invalid name or a kind conflict: both are setup
// bugs in compile-time literals (see the obsnames checker), not runtime
// conditions, and must fail loudly at process start rather than silently
// corrupting the exposition.
type Registry struct {
	mu sync.RWMutex
	// kinds claims each name for one metric kind.
	//
	//gcopss:guardedby mu
	kinds map[string]metricKind
	// counters holds the registered counters.
	//
	//gcopss:guardedby mu
	counters map[string]*Counter
	// gauges holds the registered gauges.
	//
	//gcopss:guardedby mu
	gauges map[string]*Gauge
	// gaugeFuncs holds the exposition-time callbacks.
	//
	//gcopss:guardedby mu
	gaugeFuncs map[string]func() float64
	// histograms holds the registered histograms.
	//
	//gcopss:guardedby mu
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:      make(map[string]metricKind),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() float64),
		histograms: make(map[string]*Histogram),
	}
}

// ValidName reports whether a metric name matches ^[a-z][a-z0-9_.]*$.
func ValidName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' && c != '.' {
			return false
		}
	}
	return true
}

// register validates and claims a name for the given kind; it must be called
// with the write lock held.
//
//gcopss:locked mu
func (r *Registry) register(name string, kind metricKind) {
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want ^[a-z][a-z0-9_.]*$)", name))
	}
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as %v, requested %v", name, prev, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, kindCounter)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, kindGauge)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time (table sizes read straight from the owning structure). Re-registering
// a name replaces the callback — routers re-bind their engines' gauges when
// a shared registry is installed.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, kindGaugeFunc)
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram with the given upper bounds,
// registering it on first use. Requesting an existing histogram ignores the
// bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, kindHistogram)
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}
