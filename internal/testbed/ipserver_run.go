package testbed

import (
	"strings"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/stats"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// ipAddr builds the destination address carried in the packet name. All
// machines run "an application-level forwarding engine ... forwarding
// packets based on the destination address".
func ipAddr(dest string) string { return "/ip/" + dest }

// RunIPServer executes the microbenchmark on the IP client/server baseline:
// application-level forwarders in the Fig. 3b topology, a server attached to
// R1, players unicasting updates to the server, and the server unicasting a
// copy to every interested player.
func RunIPServer(s *Setup) (*MicroResult, error) {
	tb := New()
	res := &MicroResult{Latency: &stats.Sample{}}

	vis, err := visibilityIndex(s)
	if err != nil {
		return nil, err
	}
	attach := attachment(len(s.Trace.Players))

	// Precomputed per-player names: the server resolves recipients on every
	// update, so building "playerN" / "/ip/playerN" there would allocate per
	// delivered copy.
	clientNames := make([]string, len(s.Trace.Players))
	ipNames := make([]string, len(s.Trace.Players))
	for pi := range s.Trace.Players {
		clientNames[pi] = clientName(pi)
		ipNames[pi] = ipAddr(clientNames[pi])
	}

	// Forwarders in the Fig. 3b topology; routes maps router → destination
	// endpoint → face. It is read-only once Run starts.
	g, _ := topo.Benchmark()
	routes := make([]map[string]ndn.FaceID, g.NodeCount())
	for id := range routes {
		table := make(map[string]ndn.FaceID)
		routes[id] = table
		tb.AddNode(g.Name(topo.NodeID(id)), func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
			if face, ok := table[strings.TrimPrefix(pkt.Name, "/ip/")]; ok {
				sink.Emit(ndn.Action{Face: face, Packet: pkt})
			}
		}, func(*wire.Packet) time.Duration { return s.Costs.IPForward }, 0)
	}
	rn, err := wireGraph(tb, g, func(_, _ topo.NodeID) time.Duration { return s.LinkDelay })
	if err != nil {
		return nil, err
	}
	// attachHost wires an endpoint's face 0 to a new face on its router and
	// routes the endpoint's address there from every router.
	attachHost := func(host, router string) error {
		at := rn.id(router)
		f := rn.newFace(at)
		if err := tb.Connect(host, 0, router, f, s.LinkDelay); err != nil {
			return err
		}
		for id, table := range routes {
			if topo.NodeID(id) == at {
				table[host] = f
				continue
			}
			face, err := rn.nextHopFace(topo.NodeID(id), at)
			if err != nil {
				return err
			}
			table[host] = face
		}
		return nil
	}

	// Server endpoint on R1: resolves recipients and unicasts copies. The
	// per-recipient serialization cost is the node's per-copy surcharge.
	const serverName = "server"
	tb.AddNode(serverName, func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
		if len(pkt.CDs) != 1 {
			return
		}
		for _, pi := range vis[pkt.CDs[0].Key()] {
			if clientNames[pi] == pkt.Origin {
				continue
			}
			// COW shallow copy: each unicast copy readdresses the shared
			// payload without duplicating it.
			cp := *pkt
			cp.Name = ipNames[pi]
			sink.Emit(ndn.Action{Face: 0, Packet: &cp})
		}
	}, func(*wire.Packet) time.Duration { return s.Costs.ServerBase }, s.Costs.ServerPerRecipient)
	if err := attachHost(serverName, "R1"); err != nil {
		return nil, err
	}

	// Player endpoints, accumulating deliveries per client (merged in player
	// order after the run).
	accs := make([]clientAcc, len(s.Trace.Players))
	for pi := range s.Trace.Players {
		acc := &accs[pi]
		tb.AddNode(clientNames[pi], func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, _ ndn.ActionSink) {
			acc.lat.Add(float64(now.UnixNano()-pkt.SentAt) / 1e6)
			acc.deliveries++
		}, func(*wire.Packet) time.Duration { return s.Costs.HostProc }, 0)
		if err := attachHost(clientNames[pi], attach[pi]); err != nil {
			return nil, err
		}
	}

	// Publish events: unicast the update to the server.
	t0 := tb.Now()
	start := t0.Add(s.Warmup)
	for i, u := range s.Trace.Updates {
		u := u
		seq := uint64(i + 1)
		tb.Schedule(start.Add(u.At), func(now time.Time) {
			res.Published++
			tb.Emit(now, clientNames[u.Player], []ndn.Action{{Face: 0, Packet: &wire.Packet{
				Type:    wire.TypeData,
				Name:    ipAddr(serverName),
				CDs:     []cd.CD{u.CD},
				Origin:  clientNames[u.Player],
				Seq:     seq,
				Payload: make([]byte, u.Size),
				SentAt:  now.UnixNano(),
			}}})
		})
	}

	deadline := start.Add(s.Trace.Duration + s.Drain)
	if err := tb.Run(deadline, 0); err != nil {
		return nil, err
	}
	mergeAccs(res, accs)
	res.PacketEvents, res.Bytes = tb.Stats()
	return res, nil
}
