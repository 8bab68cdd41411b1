package testbed

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/icn-gaming/gcopss/internal/core"
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

	// Tracer, when non-nil, attaches causal packet tracing to the G-COPSS
	// routers: sampled publications carry a trace ID end to end and every
	// hop decision lands in the tracer's per-router rings. Sampling is
	// deterministic under the tracer's seed, so the trace itself replays.
	Tracer *obstrace.Tracer
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
}

// clientAcc accumulates one client's delivery observations. Each client
// records into its own sample and runs merge them in player order afterwards
// (mergeAccs), which fixes the float summation order of the aggregate.
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

// routerNet is a topo.Graph wired onto a testbed: graph node id is testbed
// node names[id] (routers[id] its core.Router, in scenarios that run them),
// its faces 1…len(nbrs[id]) lead to its neighbors in nbrs order, and the
// faces after those attach hosts.
type routerNet struct {
	tb       *Testbed
	g        *topo.Graph
	paths    *topo.Paths
	names    []string
	nbrs     [][]topo.NodeID
	routers  []*core.Router
	nextFace []ndn.FaceID
}

// wireGraph links the nodes of g, already registered on tb under their graph
// names, in ascending (a, b > a) order with delay(a, b), numbering each
// node's faces 1, 2, … as its links are made. Graph.Neighbors is sorted, so
// face k of node a leads to nbrs[a][k-1]. Connect assigns link IDs, the high
// half of every canonical delivery key, in this order: changing it re-times
// the traces TestMicrobenchGolden and TestBackboneGolden pin.
func wireGraph(tb *Testbed, g *topo.Graph, delay func(a, b topo.NodeID) time.Duration) (*routerNet, error) {
	n := g.NodeCount()
	rn := &routerNet{tb: tb, g: g, paths: g.AllPairs(), names: make([]string, n),
		nbrs: make([][]topo.NodeID, n), nextFace: make([]ndn.FaceID, n)}
	for id := range rn.names {
		rn.names[id] = g.Name(topo.NodeID(id))
		rn.nbrs[id] = g.Neighbors(topo.NodeID(id))
	}
	for a, nbrs := range rn.nbrs {
		for _, b := range nbrs {
			if int(b) < a {
				continue
			}
			fa, fb := rn.newFace(topo.NodeID(a)), rn.newFace(b)
			if err := tb.Connect(rn.names[a], fa, rn.names[b], fb, delay(topo.NodeID(a), b)); err != nil {
				return nil, err
			}
		}
	}
	return rn, nil
}

// buildRouters registers one core.Router per node of g on tb, in ID order,
// and wires them with wireGraph.
func buildRouters(tb *Testbed, g *topo.Graph, costs Costs,
	delay func(a, b topo.NodeID) time.Duration, opts ...core.Option) (*routerNet, error) {
	routers := make([]*core.Router, g.NodeCount())
	proc := func(*wire.Packet) time.Duration { return costs.RouterProc }
	for id := range routers {
		r := core.NewRouter(g.Name(topo.NodeID(id)), opts...)
		routers[id] = r
		tb.AddNode(r.Name(), r.HandlePacketTo, proc, costs.PerCopy)
	}
	rn, err := wireGraph(tb, g, delay)
	if err != nil {
		return nil, err
	}
	for id, r := range routers {
		for f := ndn.FaceID(1); f <= rn.nextFace[id]; f++ {
			r.AddFace(f, core.FaceRouter)
		}
	}
	rn.routers = routers
	return rn, nil
}

// buildRouterNet creates the Fig. 3b lab's routers (with the given per-router
// options) from topo.Benchmark, every link s.LinkDelay long.
func buildRouterNet(tb *Testbed, s *Setup, opts ...core.Option) (*routerNet, error) {
	g, _ := topo.Benchmark()
	return buildRouters(tb, g, s.Costs, func(_, _ topo.NodeID) time.Duration { return s.LinkDelay }, opts...)
}

// newFace hands out the next face of node id.
func (rn *routerNet) newFace(id topo.NodeID) ndn.FaceID {
	rn.nextFace[id]++
	return rn.nextFace[id]
}

// id resolves a router name; the lab scenarios name routers R1…R6.
func (rn *routerNet) id(name string) topo.NodeID {
	id, ok := rn.g.Lookup(name)
	if !ok {
		panic("testbed: no router " + name) // scenario bug: names are fixed
	}
	return id
}

// router returns the named core router.
func (rn *routerNet) router(name string) *core.Router { return rn.routers[rn.id(name)] }

// attachClient wires a client node to a router and returns the router-side
// face (the client's own face is always 0).
func (rn *routerNet) attachClient(router, client string, kind core.FaceKind, delay time.Duration) (ndn.FaceID, error) {
	id := rn.id(router)
	f := rn.newFace(id)
	rn.routers[id].AddFace(f, kind)
	if err := rn.tb.Connect(router, f, client, 0, delay); err != nil {
		return 0, err
	}
	return f, nil
}

// linkFace returns the face on node a of its link to neighbor b.
func (rn *routerNet) linkFace(a, b topo.NodeID) ndn.FaceID {
	return ndn.FaceID(slices.Index(rn.nbrs[a], b) + 1)
}

// nextHopFace returns the face on node at leading one hop along the
// shortest path toward node dest.
func (rn *routerNet) nextHopFace(at, dest topo.NodeID) (ndn.FaceID, error) {
	nh, ok := rn.paths.NextHop(at, dest)
	if !ok {
		return 0, fmt.Errorf("testbed: no route %s→%s", rn.names[at], rn.names[dest])
	}
	return rn.linkFace(at, nh), nil
}

// routePrefix installs an NDN route for prefix toward router dest on every
// router: dest forwards it on face, every other router one hop along its
// shortest path to dest.
func (rn *routerNet) routePrefix(prefix string, dest topo.NodeID, face ndn.FaceID) error {
	for id, r := range rn.routers {
		f := face
		if topo.NodeID(id) != dest {
			var err error
			if f, err = rn.nextHopFace(topo.NodeID(id), dest); err != nil {
				return err
			}
		}
		r.NDN().FIB().Add(prefix, f)
	}
	return nil
}

// handoffPath returns core.PrepareHandoff's path along the shortest route
// from router from to router to (empty when there is none).
func (rn *routerNet) handoffPath(from, to topo.NodeID) []core.PathHop {
	hops := rn.paths.Path(from, to)
	path := make([]core.PathHop, len(hops))
	for i, id := range hops {
		path[i].Router = rn.routers[id]
		if i+1 < len(hops) {
			path[i].FaceUp = rn.linkFace(id, hops[i+1])
		}
		if i > 0 {
			path[i].FaceDown = rn.linkFace(id, hops[i-1])
		}
	}
	return path
}
