package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/icn-gaming/gcopss/internal/event"
	"github.com/icn-gaming/gcopss/internal/testbed"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
)

// sim-backbone: the researcher's workload. One iteration is
// testbed.RunBackbone over the 279-router backbone with simPlayers players
// publishing for simSpan of simulated time, single-worker, per-packet path.
// An op is one simulated delivery; the latency is what the researcher waits
// for, one iteration's wall time.
type simSpec struct {
	players int
	span    time.Duration // simulated publish phase of a timed iteration
	warm    time.Duration // simulated publish phase of the set-up's warm-up iteration
}

var simBackbone = simSpec{players: 2000, span: 5 * time.Second, warm: time.Second}

const simMinIterations = 3

// simIteration is one timed RunBackbone.
type simIteration struct {
	wall          time.Duration
	cpu           time.Duration
	mallocs       uint64
	bytes         uint64
	gcPauseNs     uint64
	obs           testbed.BackboneObservables
	sched         *event.SchedProfile
	heapSysBytes  uint64
	packetsRouted uint64
}

// scenario builds the iteration's setup. Where the players stand is pinned:
// how many deliveries a publication causes depends on how many players share
// an area, and over ten placements that ratio (and with it every
// per-delivery figure) spread by 13 %, which is the workload changing, not
// the program. The run's seed moves the client links' delay by up to a
// microsecond instead: every arrival time, the order of events and the
// delivery hash change with it, the amount of work does not.
func (spec simSpec) scenario(seed int64) (*testbed.BackboneSetup, error) {
	s, err := testbed.PaperBackboneSetup(spec.players, spec.span, simPlacementSeed)
	if err != nil {
		return nil, err
	}
	jitter := seed % 1000
	if jitter < 0 {
		jitter = -jitter
	}
	s.HostDelay += time.Duration(jitter) * time.Nanosecond
	return s, nil
}

const simPlacementSeed = 1

func (spec simSpec) iterate(seed int64, mutate func(*testbed.BackboneSetup)) (*simIteration, error) {
	s, err := spec.scenario(seed)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(s)
	}
	before := snapProcess()
	t0 := time.Now()
	r, err := testbed.RunBackbone(s)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	after := snapProcess()
	return &simIteration{wall: wall, cpu: after.cpu - before.cpu,
		mallocs: after.mem.Mallocs - before.mem.Mallocs, bytes: after.mem.TotalAlloc - before.mem.TotalAlloc,
		gcPauseNs: after.mem.PauseTotalNs - before.mem.PauseTotalNs, heapSysBytes: after.mem.HeapSys,
		obs: r.Obs, sched: r.Sched, packetsRouted: r.Obs.PacketEvents - uint64(r.Obs.Deliveries)}, nil
}

// setup builds the scenario once and runs the short warm-up iteration that
// grows the heap and the scheduler's queues to their working size.
func (spec simSpec) setup(seed int64) error {
	warm := spec
	warm.span = spec.warm
	_, err := warm.iterate(seed, nil)
	return err
}

// runSim is the untraced run of sim-backbone.
func runSim(cfg runConfig) (*result, error) {
	spec := cfg.sim
	res := newResult(endToEnd)
	setupS, err := repeatSetup(cfg.setups, func() (func(), error) {
		return func() {}, spec.setup(cfg.seed)
	})
	if err != nil {
		return nil, err
	}
	var its []*simIteration
	for start := time.Now(); len(its) < simMinIterations || time.Since(start).Seconds() < cfg.seconds; {
		it, err := spec.iterate(cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}
	var walls, allocs, bytes []float64
	for _, it := range its {
		res.Attempted += int64(it.obs.Deliveries)
		if it.obs != its[0].obs {
			res.Failed += int64(it.obs.Deliveries)
		}
		walls = append(walls, float64(it.wall)/1e3)
		allocs = append(allocs, float64(it.mallocs)/float64(it.obs.Deliveries))
		bytes = append(bytes, float64(it.bytes)/float64(it.obs.Deliveries))
	}
	if res.Failed != 0 {
		res.problem("sim-backbone: observables differ between iterations of one setup")
	}
	if its[0].obs.Deliveries == 0 {
		res.problem("sim-backbone: nothing was delivered")
	}
	// One iteration is one window holding one op, so its median and its
	// 95th percentile are both its wall time.
	wall := quietLow(walls)
	res.set("setup_s", setupS)
	res.set("latency_p50_us", wall)
	res.set("latency_p95_us", wall)
	res.set("ops_per_s", float64(its[0].obs.Deliveries)/(wall/1e6))
	res.set("allocs_per_op", median(allocs))
	res.set("alloc_bytes_per_op", median(bytes))
	note("sim-backbone: %d iterations of %d simulated deliveries, one worker, GOMAXPROCS=%d; no sockets are involved",
		len(its), its[0].obs.Deliveries, maxProcs())
	return res, nil
}

// runSimTraced is the traced run of sim-backbone: one plain iteration, one
// under the CPU profiler, one on every core with the scheduler profiler, and
// the layers replayed alone.
func runSimTraced(cfg runConfig) (*result, error) {
	spec := cfg.sim
	res := newResult(perLayer)
	if err := spec.setup(cfg.seed); err != nil {
		return nil, err
	}
	plain, err := spec.iterate(cfg.seed, nil)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(cfg.outDir, "sim-backbone.cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close() //nolint:errcheck // already failing
		return nil, err
	}
	profiled, err := spec.iterate(cfg.seed, nil)
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	parallel, err := spec.iterate(cfg.seed, func(s *testbed.BackboneSetup) {
		s.Workers, s.Burst, s.Profile = maxProcs(), true, true
	})
	if err != nil {
		return nil, err
	}
	res.Attempted = 3 * int64(plain.obs.Deliveries)
	if profiled.obs != plain.obs {
		res.Failed += int64(plain.obs.Deliveries)
		res.problem("sim-backbone: observables differ between two iterations of one setup")
	}
	if parallel.obs != plain.obs {
		res.Failed += int64(plain.obs.Deliveries)
		res.problem("sim-backbone: observables differ between 1 worker and %d workers with bursts", maxProcs())
	}

	deliveries := float64(plain.obs.Deliveries)
	res.set("testbed.ns_per_packet_event", float64(plain.wall)/float64(plain.obs.PacketEvents))
	res.set("testbed.packet_events_per_delivery", float64(plain.obs.PacketEvents)/deliveries)
	res.set("process.cpu_us_per_delivery", float64(plain.cpu)/1e3/deliveries)
	res.set("process.heap_peak_mb", float64(parallel.heapSysBytes)/(1<<20))
	res.set("process.gc_pause_ms", float64(plain.gcPauseNs)/1e6)
	res.set("process.trace_overhead_frac", 1-float64(plain.wall)/float64(profiled.wall))
	if p := parallel.sched; p != nil {
		res.set("event.barrier_wait_frac", p.BarrierWaitFrac())
		res.set("event.load_imbalance_frac", p.LoadImbalanceFrac())
		res.set("event.crit_path_speedup", p.CritPathSpeedup())
	} else {
		res.problem("sim-backbone: the profiled iteration returned no scheduler profile")
	}

	fracs, err := cpuFractions(profPath)
	if err != nil {
		note("sim-backbone: no CPU shares: %v", err)
	}
	for _, pkg := range []string{"event", "testbed", "core", "copss", "wire", "trace", "runtime"} {
		res.set("sim.cpu_frac."+pkg, fracs[pkg])
	}
	note("sim-backbone: CPU profile written to %s", profPath)

	// The layers alone, at the iteration's own counts.
	eventNs := replayScheduler(int(plain.obs.PacketEvents))
	streamNs, err := replayStream(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	routerNs, lookupNs, err := replayEdgeRouter(spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.set("event.ns_per_event", eventNs)
	res.set("trace.stream_ns_per_update", streamNs)
	res.set("core.handle_packet_ns_per_pkt", routerNs)
	res.set("copss.st_lookup_ns", lookupNs)
	replayed := eventNs*float64(plain.obs.PacketEvents) + streamNs*float64(plain.obs.Published) +
		routerNs*float64(plain.packetsRouted)
	res.set("testbed.residual_frac", 1-replayed/float64(plain.wall))

	t0 := time.Now()
	g, _, _, err := topo.Backbone(topo.PaperBackbone())
	if err != nil {
		return nil, err
	}
	res.set("topo.build_ms", float64(time.Since(t0))/1e6)
	t0 = time.Now()
	assign := topo.Partition(g, maxProcs())
	res.set("topo.partition_ms", float64(time.Since(t0))/1e6)
	runtime.KeepAlive(assign)
	return res, nil
}

// replayScheduler times the event scheduler alone: n no-op events scheduled
// and run, a few thousand pending at a time as in the testbed.
func replayScheduler(n int) float64 {
	const pending = 4096
	origin := time.Unix(0, 0)
	s := event.NewScheduler(origin)
	noop := func(time.Time, event.Payload) {}
	t0 := time.Now()
	for done := 0; done < n; done += pending {
		base := s.Now()
		for i := 0; i < pending; i++ {
			// A stride that scatters insertion order over the batch, so
			// the heap does real sifting.
			s.AtCall(base.Add(time.Duration((i*2654435761)%pending)*time.Microsecond), noop, event.Payload{Int: int64(i)})
		}
		s.Run(pending)
	}
	batches := (n + pending - 1) / pending
	return float64(time.Since(t0)) / float64(batches*pending)
}

// replayStream times trace.Stream alone: every player's updates drawn until
// the stream ends.
func replayStream(spec simSpec, seed int64) (float64, error) {
	s, err := spec.scenario(seed)
	if err != nil {
		return 0, err
	}
	stream, err := trace.NewStream(s.World, s.Stream)
	if err != nil {
		return 0, err
	}
	updates := 0
	t0 := time.Now()
	for pi := range stream.Players() {
		for {
			if _, ok := stream.Next(pi); !ok {
				break
			}
			updates++
		}
	}
	if updates == 0 {
		return 0, fmt.Errorf("trace stream produced no updates")
	}
	return float64(time.Since(t0)) / float64(updates), nil
}

// cpuFractions sums a CPU profile's flat samples by package of this module
// (and the Go runtime), using `go tool pprof -top` so the benchmark needs no
// profile parser of its own.
func cpuFractions(profile string) (map[string]float64, error) {
	fracs := map[string]float64{}
	exe, err := os.Executable()
	if err != nil {
		return fracs, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", exe, profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	out, err := cmd.Output()
	if err != nil {
		return fracs, fmt.Errorf("go tool pprof: %w", err)
	}
	const module = "github.com/icn-gaming/gcopss/internal/"
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		fn := f[5]
		switch {
		case strings.HasPrefix(fn, module):
			pkg := fn[len(module):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			fracs[pkg] += pct / 100
		case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime"):
			fracs["runtime"] += pct / 100
		}
	}
	return fracs, sc.Err()
}
