package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit. The two tables below are the
// program's half of BENCHMARK.json; TestBenchmarkJSONMatchesProgram keeps the
// two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a run prints with -trace 0. Every workload reports every
// metric; "op" is one delivery to one subscriber on live-fanout, live-pairs
// and sim-backbone, and one completed move on live-move (README.md has the
// per-workload definitions).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_us", "us"},
	{"latency_p95_us", "us"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
}

// perLayer is what a run prints with -trace 1. A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"transport.read_burst_ns_per_pkt", "ns"},
	{"transport.read_allocs_per_pkt", "count"},
	{"transport.write_burst_ns_per_pkt", "ns"},
	{"transport.write_ns_per_frame", "ns"},
	{"transport.rx_burst_width_mean", "count"},
	{"transport.hop_latency_us", "us"},
	{"transport.queue_wait_us", "us"},
	{"transport.conn_setup_ms", "ms"},
	{"wire.decode_ns_per_pkt", "ns"},
	{"wire.decode_allocs_per_pkt", "count"},
	{"wire.encode_ns_per_pkt", "ns"},
	{"wire.bytes_per_pkt", "B"},
	{"core.handle_burst_ns_per_pkt", "ns"},
	{"core.allocs_per_pkt", "count"},
	{"core.handle_packet_ns_per_pkt", "ns"},
	{"core.subscribe_ns", "ns"},
	{"core.unsubscribe_ns", "ns"},
	{"core.multicast_in", "count"},
	{"core.multicast_out", "count"},
	{"core.dropped", "count"},
	{"core.retrans_total", "count"},
	{"copss.st_lookup_ns", "ns"},
	{"ndn.interest_ns", "ns"},
	{"ndn.data_ns", "ns"},
	{"ndn.cs_hit_frac", "ratio"},
	{"ndn.pit_entries", "count"},
	{"broker.query_ns", "ns"},
	{"broker.update_ns", "ns"},
	{"flowctl.qr_cwnd_mean", "count"},
	{"flowctl.qr_retrans", "count"},
	{"flowctl.qr_rounds", "count"},
	{"event.ns_per_event", "ns"},
	{"event.barrier_wait_frac", "ratio"},
	{"event.load_imbalance_frac", "ratio"},
	{"event.crit_path_speedup", "ratio"},
	{"testbed.ns_per_packet_event", "ns"},
	{"testbed.packet_events_per_delivery", "count"},
	{"testbed.residual_frac", "ratio"},
	{"trace.stream_ns_per_update", "ns"},
	{"topo.build_ms", "ms"},
	{"topo.partition_ms", "ms"},
	{"sim.cpu_frac.event", "ratio"},
	{"sim.cpu_frac.testbed", "ratio"},
	{"sim.cpu_frac.core", "ratio"},
	{"sim.cpu_frac.copss", "ratio"},
	{"sim.cpu_frac.wire", "ratio"},
	{"sim.cpu_frac.trace", "ratio"},
	{"sim.cpu_frac.runtime", "ratio"},
	{"live.latency_p99_us", "us"},
	{"process.cpu_us_per_delivery", "us"},
	{"process.heap_peak_mb", "MB"},
	{"process.gc_pause_ms", "ms"},
	{"process.gen_late_p99_us", "us"},
	{"process.trace_overhead_frac", "ratio"},
	{"trace.model_error_frac", "ratio"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints. Correct is false when any
// correctness check tripped; the process then also exits non-zero.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// problems lists every tripped correctness check, for stderr.
	problems []string
}

// newResult returns a result holding every metric of defs at 0, so a
// workload only fills what it measures and the key set never varies.
func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	return r
}

// set records a metric declared in the result's table. An undeclared name or
// a non-finite value is a bug in the benchmark; it makes the run incorrect.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s: undeclared or not finite (%v)", name, v)
		return
	}
	m.Value = v
	r.Metrics[name] = m
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// percentile returns the q-quantile (0..1) of sorted by nearest rank; 0 for
// an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quietLow and quietHigh pick, from one value per window of a phase, the
// value of the quiet windows: the lower quartile where lower is better, the
// upper quartile where higher is better. Interference from the host only ever
// adds latency and removes throughput, and it comes in spells of seconds
// (identical back-to-back runs on the reference host showed ten windows
// within 4 % of each other in one run and drifting by 25 % in the next), so
// the quiet quartile repeats where the median over windows does not; a
// change to the program moves every window, the quiet ones included.
func quietLow(perWindow []float64) float64 {
	s := append([]float64(nil), perWindow...)
	sort.Float64s(s)
	return percentile(s, 0.25)
}

func quietHigh(perWindow []float64) float64 {
	s := append([]float64(nil), perWindow...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1-(len(s)-1)/4]
}

// windows splits a phase into equal time windows and keeps each window's
// samples apart, so that a statistic can be taken per window and the quiet
// windows chosen among them.
type windows struct {
	samples [][]float64
}

func newWindows(n, capPerWindow int) *windows {
	w := &windows{samples: make([][]float64, n)}
	for i := range w.samples {
		w.samples[i] = make([]float64, 0, capPerWindow)
	}
	return w
}

// add files v under the window that offset/span falls in; samples outside
// [0, span) are dropped (they belong to no measured window).
func (w *windows) add(offset, span int64, v float64) {
	if offset < 0 || offset >= span {
		return
	}
	i := int(offset * int64(len(w.samples)) / span)
	w.samples[i] = append(w.samples[i], v)
}

func (w *windows) merge(o *windows) {
	for i := range w.samples {
		w.samples[i] = append(w.samples[i], o.samples[i]...)
	}
}

func (w *windows) count() int {
	n := 0
	for _, s := range w.samples {
		n += len(s)
	}
	return n
}

// quantiles returns, for each q, the quiet-window value (quietLow) of the
// non-empty windows' q-quantiles. It sorts the windows in place.
func (w *windows) quantiles(qs ...float64) []float64 {
	per := make([][]float64, len(qs))
	for _, s := range w.samples {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		for i, q := range qs {
			per[i] = append(per[i], percentile(s, q))
		}
	}
	out := make([]float64, len(qs))
	for i := range qs {
		out[i] = quietLow(per[i])
	}
	return out
}

// rateWindows turns cumulative counts sampled at window boundaries into the
// quiet-window rate per second (quietHigh).
type rateWindows struct {
	at    []time.Time
	count []uint64
}

func (r *rateWindows) sample(count uint64) {
	r.at = append(r.at, time.Now())
	r.count = append(r.count, count)
}

func (r *rateWindows) perSecond() float64 {
	var rates []float64
	for i := 1; i < len(r.at); i++ {
		if dt := r.at[i].Sub(r.at[i-1]).Seconds(); dt > 0 {
			rates = append(rates, float64(r.count[i]-r.count[i-1])/dt)
		}
	}
	return quietHigh(rates)
}
