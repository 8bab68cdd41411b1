package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/icn-gaming/gcopss/internal/core"
)

// notes is where a run explains itself (sample counts, the loopback and
// GOMAXPROCS statement, where traces went); the result line alone goes to
// standard output.
var notes io.Writer = os.Stderr

func maxProcs() int { return runtime.GOMAXPROCS(0) }

// runConfig is what the command line (or a test) asks of one workload run.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	warmup  int     // publishes of the count-based warm-up
	setups  int     // times set-up is repeated; setup_s is their median
	sim     simSpec // sim-backbone's scenario
	outDir  string  // where the traced run writes Chrome traces
}

// Phase shares of a run's measured seconds. The paced phase keeps ten
// windows of at least a second at the benchmark's 20 s.
const (
	pacedShare    = 0.55
	saturateShare = 0.45
)

func (c runConfig) span(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// liveMeasure is what one pass of the paced and saturate phases over one
// chain yields.
type liveMeasure struct {
	lat           *windows // paced-phase delivery latency from due time, µs
	deliveries    uint64   // over both phases
	satRate       float64  // deliveries/s of the saturate phase's quiet windows
	before, after procSnap
	lateP50Us     float64
	lateP99Us     float64
	pubWriteP50Us float64
	rxWidth       float64 // packets per frame the subscribers read
	verdict       seqVerdict
}

// run drives the paced phase and, when satLen is positive, the saturate
// phase, then the fence. The chain is still up when it returns, so its
// routers can be inspected; finish takes it down. On error run has already
// torn the chain down.
func (e *liveEnv) run(pacedLen, satLen time.Duration) (*liveMeasure, error) {
	m := &liveMeasure{before: snapProcess()}
	r0 := e.received()
	err := e.paced(pacedLen)
	if err == nil && satLen > 0 {
		var rate rateWindows
		stop := every(satLen/rateWindowCount, func() { rate.sample(e.received()) })
		end := time.Now().Add(satLen)
		err = e.closedLoop(func(*publisher) bool { return time.Now().Before(end) }, satLen)
		stop()
		m.satRate = rate.perSecond()
	}
	m.deliveries = e.received() - r0
	m.after = snapProcess()
	if err == nil {
		err = e.fence()
	}
	if err != nil {
		e.teardown()
		return nil, err
	}
	return m, nil
}

// finish tears the chain down and checks every delivery against what was
// published.
func (e *liveEnv) finish(m *liveMeasure) *liveMeasure {
	e.teardown()
	m.lat = newWindows(latencyWindows, 0)
	var frames, pkts int64
	for _, s := range e.subs {
		m.lat.merge(s.lat)
		frames += s.frames
		pkts += s.pkts
	}
	m.rxWidth = float64(pkts) / float64(frames)
	m.lateP50Us, m.lateP99Us = e.lateness()
	var writes []float64
	for _, p := range e.pubs {
		writes = append(writes, p.writeUs...)
	}
	sort.Float64s(writes)
	m.pubWriteP50Us = percentile(writes, 0.5)
	m.verdict = e.verdict()
	return m
}

func (e *liveEnv) measure(pacedLen, satLen time.Duration) (*liveMeasure, error) {
	m, err := e.run(pacedLen, satLen)
	if err != nil {
		return nil, err
	}
	return e.finish(m), nil
}

// check folds a pass's delivery verdict into the result.
func (r *result) checkDeliveries(what string, m *liveMeasure) {
	v := m.verdict
	r.Attempted += v.expected
	r.Failed += v.failed()
	if v.failed() != 0 {
		r.problem("%s: of %d deliveries %d missing, %d duplicated, %d misdelivered, %d out of order",
			what, v.expected, v.missing, v.duplicate, v.misdelivered, v.reordered)
	}
	if m.lat.count() == 0 {
		r.problem("%s: no paced-phase latency samples", what)
	}
}

// rateWindowCount is how many windows a closed-loop phase's throughput is
// taken over.
const rateWindowCount = 9

// every calls fn now and then once per period, on a goroutine of its own,
// until the returned stop is called; stop waits for a call in progress.
func every(period time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		fn()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fn()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// repeatSetup runs setup n times, tearing all but the last down again, and
// returns the median of the times it took. The first is timed from process
// start.
func repeatSetup(n int, setup func() (teardown func(), err error)) (float64, error) {
	var took []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return median(took), nil
}

// runLive is the untraced run of a data-plane workload: the end-to-end
// metrics over three real daemons.
func runLive(spec liveSpec, cfg runConfig) (*result, error) {
	res := newResult(endToEnd)
	var env *liveEnv
	setupS, err := repeatSetup(cfg.setups, func() (func(), error) {
		e, _, err := setupLive(spec, cfg.seed, 3, false, cfg.warmup)
		if err != nil {
			return nil, err
		}
		env = e
		return e.teardown, nil
	})
	if err != nil {
		return nil, err
	}
	m, err := env.measure(cfg.span(pacedShare), cfg.span(saturateShare))
	if err != nil {
		return nil, err
	}
	res.checkDeliveries(spec.name, m)
	q := m.lat.quantiles(0.5, 0.95)
	res.set("setup_s", setupS)
	res.set("latency_p50_us", q[0])
	res.set("latency_p95_us", q[1])
	res.set("ops_per_s", m.satRate)
	res.set("allocs_per_op", float64(m.after.mem.Mallocs-m.before.mem.Mallocs)/float64(m.deliveries))
	res.set("alloc_bytes_per_op", float64(m.after.mem.TotalAlloc-m.before.mem.TotalAlloc)/float64(m.deliveries))
	note("%s: loopback TCP, one process, GOMAXPROCS=%d; %d paced latency samples in %d windows; generator late p50 %.1f us p99 %.1f us",
		spec.name, maxProcs(), m.lat.count(), latencyWindows, m.lateP50Us, m.lateP99Us)
	if m.lateP50Us > 0.05*q[0] {
		res.problem("%s: generator ran late (p50 %.1f us against a latency p50 of %.1f us); the run is invalid",
			spec.name, m.lateP50Us, q[0])
	}
	return res, nil
}

// Traced-run shares of the measured seconds: the real three-hop chain, the
// real one-hop chain (for the per-hop latency) and the traced chain.
const (
	tracedRealPaced    = 0.25
	tracedRealSaturate = 0.15
	tracedOneHopPaced  = 0.15
	tracedChainPaced   = 0.15
	tracedChainSat     = 0.10
)

// runLiveTraced is the traced run of a data-plane workload: the per-layer
// metrics.
func runLiveTraced(spec liveSpec, cfg runConfig) (*result, error) {
	res := newResult(perLayer)

	// Real daemons, three hops: the counters and process costs behind the
	// end-to-end numbers.
	env, _, err := setupLive(spec, cfg.seed, 3, false, cfg.warmup)
	if err != nil {
		return nil, err
	}
	stats0 := env.ch.routerStats()
	connSetup := median(env.ch.connSetup)
	real3, err := env.run(cfg.span(tracedRealPaced), cfg.span(tracedRealSaturate))
	if err != nil {
		return nil, err
	}
	res.setRouterStats(stats0, env.ch.routerStats())
	env.finish(real3)
	res.checkDeliveries(spec.name+" (real, 3 hops)", real3)
	q3 := real3.lat.quantiles(0.5, 0.99)
	res.set("live.latency_p99_us", q3[1])
	res.set("transport.rx_burst_width_mean", real3.rxWidth)
	res.set("transport.conn_setup_ms", connSetup)
	res.set("process.cpu_us_per_delivery", float64(real3.after.cpu-real3.before.cpu)/1e3/float64(real3.deliveries))
	res.set("process.heap_peak_mb", float64(real3.after.mem.HeapSys)/(1<<20))
	res.set("process.gc_pause_ms", float64(real3.after.mem.PauseTotalNs-real3.before.mem.PauseTotalNs)/1e6)
	res.set("process.gen_late_p99_us", real3.lateP99Us)

	// Real daemon, one hop: what two more hops add to the median.
	env, _, err = setupLive(spec, cfg.seed, 1, false, cfg.warmup)
	if err != nil {
		return nil, err
	}
	real1, err := env.measure(cfg.span(tracedOneHopPaced), -1)
	if err != nil {
		return nil, err
	}
	res.checkDeliveries(spec.name+" (real, 1 hop)", real1)
	hopUs := (q3[0] - real1.lat.quantiles(0.5)[0]) / 2
	res.set("transport.hop_latency_us", hopUs)

	// Traced hops, three of them: the spans.
	env, hops, err := setupLive(spec, cfg.seed, 3, true, cfg.warmup)
	if err != nil {
		return nil, err
	}
	from := hops[0].since()
	traced, err := env.measure(cfg.span(tracedChainPaced), cfg.span(tracedChainSat))
	if err != nil {
		return nil, err
	}
	// Same checker, same input: the traced hops must deliver exactly what
	// the daemons deliver.
	res.checkDeliveries(spec.name+" (traced hops)", traced)
	if traced.rxWidth != real3.rxWidth {
		note("%s: traced hops wrote %.3f packets per frame, the daemons %.3f", spec.name, traced.rxWidth, real3.rxWidth)
	}
	path := filepath.Join(cfg.outDir, spec.name+".trace.json")
	if err := writeChromeTrace(path, hops, from); err != nil {
		return nil, err
	}
	note("%s: Chrome trace written to %s", spec.name, path)

	last := hops[len(hops)-1].profile(from)
	mid := hops[len(hops)/2].profile(from)
	res.setHopProfile(last)
	res.set("transport.queue_wait_us", mid.queueP50Us)
	model := traced.pubWriteP50Us
	for _, h := range hops {
		model += h.profile(from).transitP50Us
	}
	res.set("trace.model_error_frac", abs(model-q3[0])/q3[0])
	res.set("process.trace_overhead_frac", 1-traced.satRate/real3.satRate)
	note("%s: real p50 %.1f us over 3 hops, %.1f us over 1; span model %.1f us; last hop per packet: read %.0f + decode %.0f ns in, route %.0f ns, (write %.0f + encode %.0f ns) x %.2f packets out",
		spec.name, q3[0], q3[0]-2*hopUs, model, last.readSelfNs, last.decodeNs, last.routeNs,
		last.writeSelfNs, last.encodeNs, float64(last.pktsOut)/float64(last.pktsIn))

	if err := replayLiveLayers(spec, cfg.seed, res); err != nil {
		return nil, err
	}
	return res, nil
}

// setHopProfile reports the last hop's per-packet self times: read and write
// without their decode and encode children, the children, and the route.
func (r *result) setHopProfile(p hopProfile) {
	r.set("transport.read_burst_ns_per_pkt", p.readSelfNs)
	r.set("transport.write_burst_ns_per_pkt", p.writeSelfNs)
	r.set("transport.write_ns_per_frame", p.writeNsPerFrame)
	r.set("core.handle_burst_ns_per_pkt", p.routeNs)
	r.set("wire.decode_ns_per_pkt", p.decodeNs)
	r.set("wire.encode_ns_per_pkt", p.encodeNs)
}

// setRouterStats reports what the chain's routers counted between two
// readings.
func (r *result) setRouterStats(from, to core.Stats) {
	r.set("core.multicast_in", float64(to.MulticastIn-from.MulticastIn))
	r.set("core.multicast_out", float64(to.MulticastOut-from.MulticastOut))
	r.set("core.dropped", float64(to.Dropped-from.Dropped))
	r.set("core.retrans_total", float64(to.Retransmissions-from.Retransmissions))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func note(format string, args ...any) {
	fmt.Fprintf(notes, format+"\n", args...)
}
