package testbed

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/event"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/ndn"
	obstrace "github.com/icn-gaming/gcopss/internal/obs/trace"
	"github.com/icn-gaming/gcopss/internal/stats"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Setup is the shared microbenchmark scenario: the 5×5 world, the 62-player
// publish trace and the processing-cost model.
type Setup struct {
	World *gamemap.World
	Trace *trace.Trace
	Costs Costs

	// LinkDelay is the per-link propagation delay of the lab LAN.
	LinkDelay time.Duration
	// WarmupAt is when the trace starts (control plane settles before it).
	Warmup time.Duration
	// Drain is how long after the last publish the run keeps delivering.
	Drain time.Duration

	// Workers is the number of scheduler shards packet processing is
	// partitioned across; 0 or 1 is one shard, run inline on the calling
	// goroutine by the same loop. Results are identical at every worker
	// count.
	Workers int

	// Tracer, when non-nil, attaches causal packet tracing to the G-COPSS
	// routers: sampled publications carry a trace ID end to end and every
	// hop decision lands in the tracer's per-router rings. Sampling is
	// deterministic under the tracer's seed, so the trace itself replays.
	Tracer *obstrace.Tracer
	// Profile enables the sharded-scheduler profiler for the G-COPSS run;
	// the per-window timeline and barrier-wait attribution come back in
	// MicroResult.Sched. Profiling observes wall-clock time, so it changes
	// no virtual-time results but does cost a few timestamps per window.
	Profile bool

	// NDN configures the query/response baseline.
	NDN NDNOptions
}

// NDNOptions parameterizes the NDN (VoCCN/ACT-style) solution of the
// microbenchmark.
type NDNOptions struct {
	// PipelineWindow is the number of outstanding Interests a consumer
	// keeps per producer ("a set of at most N (N = 3 ...) queries
	// outstanding at any time").
	PipelineWindow int
	// Accumulate is the producer's update-accumulation interval t ("we send
	// a response every t ms").
	Accumulate time.Duration
	// Refresh is the consumer's Interest refresh period (PIT lifetime).
	Refresh time.Duration
	// QueryAllPeers makes every player poll every other player ("every
	// player queries all the possible players"); false restricts polling to
	// the AoI-visible peers.
	QueryAllPeers bool
}

// PaperSetup builds the Section V-A scenario: 5×5 map, paper object
// population, 62 players publishing every 1–5 s for 10 minutes.
func PaperSetup() (*Setup, error) {
	m, err := gamemap.NewGrid(5, 5)
	if err != nil {
		return nil, err
	}
	world := gamemap.NewWorld(m)
	if err := world.PopulateObjects(gamemap.PaperObjectCounts(), 0, rand.New(rand.NewSource(31))); err != nil {
		return nil, err
	}
	tr, err := trace.GenerateMicrobench(world, trace.PaperMicrobench())
	if err != nil {
		return nil, err
	}
	return &Setup{
		World:     world,
		Trace:     tr,
		Costs:     PaperCosts(),
		LinkDelay: 100 * time.Microsecond,
		Warmup:    time.Second,
		Drain:     60 * time.Second,
		NDN: NDNOptions{
			PipelineWindow: 3,
			Accumulate:     50 * time.Millisecond,
			Refresh:        4 * time.Second,
			QueryAllPeers:  true,
		},
	}, nil
}

// ScaledSetup shortens the trace for fast tests.
func ScaledSetup(duration time.Duration, seed int64) (*Setup, error) {
	s, err := PaperSetup()
	if err != nil {
		return nil, err
	}
	cfg := trace.PaperMicrobench()
	cfg.Duration = duration
	cfg.Seed = seed
	tr, err := trace.GenerateMicrobench(s.World, cfg)
	if err != nil {
		return nil, err
	}
	s.Trace = tr
	s.Drain = 20 * time.Second
	return s, nil
}

// MicroResult is one system's microbenchmark outcome.
type MicroResult struct {
	// Latency holds per-delivery update latencies in milliseconds — the
	// Fig. 4 CDF data.
	Latency *stats.Sample
	// Deliveries counts received update copies; Published counts the
	// publish events that entered the network.
	Deliveries int
	Published  int
	// PacketEvents and Bytes aggregate network activity.
	PacketEvents uint64
	Bytes        float64
	// Sched is the scheduler profile of the run (nil unless Setup.Profile
	// was set): wall-clock attribution of the windowed parallel loop.
	Sched *event.SchedProfile
}

// clientAcc accumulates one client's delivery observations. Client nodes on
// different shards run concurrently, so each records into its own sample;
// runs merge them in player order afterwards (mergeAccs), which keeps the
// aggregate bit-identical at every worker count.
type clientAcc struct {
	lat        stats.Sample
	deliveries int
}

// mergeAccs folds per-client accumulators into the result in player order.
func mergeAccs(res *MicroResult, accs []clientAcc) {
	for i := range accs {
		res.Latency.Merge(&accs[i].lat)
		res.Deliveries += accs[i].deliveries
	}
}

// attachment maps players onto routers uniformly ("players are uniformly
// distributed across the routers in the network").
func attachment(playerCount int) []string {
	out := make([]string, playerCount)
	for i := range out {
		out[i] = fmt.Sprintf("R%d", i%6+1)
	}
	return out
}

// clientName returns the testbed node name of a player.
func clientName(i int) string { return fmt.Sprintf("player%d", i) }

// visibilityIndex precomputes leaf CD key → player indexes able to see it.
func visibilityIndex(s *Setup) (map[string][]int, error) {
	out := make(map[string][]int)
	for pi, p := range s.Trace.Players {
		area, ok := s.World.Map.Area(p.Area)
		if !ok {
			return nil, fmt.Errorf("testbed: player %d in unknown area %v", pi, p.Area)
		}
		for _, leaf := range area.VisibleLeaves() {
			out[leaf.Key()] = append(out[leaf.Key()], pi)
		}
	}
	return out, nil
}

// routerNet wires six core.Routers in the Fig. 3b topology onto a testbed.
type routerNet struct {
	tb       *Testbed
	routers  map[string]*core.Router
	nextFace map[string]ndn.FaceID
	// faceToward[a][b] is the face on router a of the a–b link.
	faceToward map[string]map[string]ndn.FaceID
	paths      *topo.Paths
	ids        map[string]topo.NodeID
	names      []string
}

// buildRouterNet creates the routers (with the given per-router options) and
// links them per the benchmark topology.
func buildRouterNet(tb *Testbed, s *Setup, opts ...core.Option) (*routerNet, error) {
	g, ids := topo.Benchmark()
	rn := &routerNet{
		tb:         tb,
		routers:    make(map[string]*core.Router),
		nextFace:   make(map[string]ndn.FaceID),
		faceToward: make(map[string]map[string]ndn.FaceID),
		paths:      g.AllPairs(),
		ids:        ids,
		names:      []string{"R1", "R2", "R3", "R4", "R5", "R6"},
	}
	for _, name := range rn.names {
		r := core.NewRouter(name, opts...)
		rn.routers[name] = r
		rn.faceToward[name] = make(map[string]ndn.FaceID)
		router := r
		tb.AddNode(name, router.HandlePacketTo,
			func(*wire.Packet) time.Duration { return s.Costs.RouterProc },
			s.Costs.PerCopy)
	}
	type edge struct{ a, b string }
	for _, e := range []edge{{"R1", "R2"}, {"R1", "R3"}, {"R2", "R4"}, {"R2", "R5"}, {"R3", "R6"}} {
		fa, fb := rn.allocFace(e.a), rn.allocFace(e.b)
		rn.routers[e.a].AddFace(fa, core.FaceRouter)
		rn.routers[e.b].AddFace(fb, core.FaceRouter)
		rn.faceToward[e.a][e.b] = fa
		rn.faceToward[e.b][e.a] = fb
		if err := tb.Connect(e.a, fa, e.b, fb, s.LinkDelay); err != nil {
			return nil, err
		}
	}
	return rn, nil
}

func (rn *routerNet) allocFace(router string) ndn.FaceID {
	rn.nextFace[router]++
	return rn.nextFace[router]
}

// attachClient wires a client node to a router and returns the router-side
// face (the client's own face is always 0).
func (rn *routerNet) attachClient(router, client string, kind core.FaceKind, delay time.Duration) (ndn.FaceID, error) {
	f := rn.allocFace(router)
	rn.routers[router].AddFace(f, kind)
	if err := rn.tb.Connect(router, f, client, 0, delay); err != nil {
		return 0, err
	}
	return f, nil
}

// nextHopFace returns the face on router `at` leading one hop along the
// shortest path toward router `dest`.
func (rn *routerNet) nextHopFace(at, dest string) (ndn.FaceID, bool) {
	nh, ok := rn.paths.NextHop(rn.ids[at], rn.ids[dest])
	if !ok {
		return 0, false
	}
	return rn.faceToward[at][rn.nameOf(nh)], true
}

func (rn *routerNet) nameOf(id topo.NodeID) string {
	for name, nid := range rn.ids {
		if nid == id {
			return name
		}
	}
	return ""
}

// worldPartitionPrefixes returns the RP serving set for the 5×5 map.
func worldPartitionPrefixes(s *Setup) []cd.CD {
	prefixes := []cd.CD{cd.MustNew("")}
	for _, r := range s.World.Map.RegionNames() {
		prefixes = append(prefixes, cd.MustNew(r))
	}
	return prefixes
}
