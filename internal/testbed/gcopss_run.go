package testbed

import (
	"fmt"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/stats"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// RunGCOPSS executes the microbenchmark on the real G-COPSS routers: R1
// hosts the RP for the whole world partition, players subscribe per their
// position, and the trace's publish events flow through encapsulation, RP
// multicast and the subscription tree.
func RunGCOPSS(s *Setup) (*MicroResult, error) {
	tb := New()
	res := &MicroResult{Latency: &stats.Sample{}}

	var ropts []core.Option
	if s.Tracer != nil {
		ropts = append(ropts, core.WithTracer(s.Tracer))
	}
	rn, err := buildRouterNet(tb, s, ropts...)
	if err != nil {
		return nil, err
	}

	// Clients: record every received Multicast (excluding self-origin).
	// Latencies accumulate per client and merge in player order after the
	// run.
	attach := attachment(len(s.Trace.Players))
	accs := make([]clientAcc, len(s.Trace.Players))
	for pi := range s.Trace.Players {
		name := clientName(pi)
		acc := &accs[pi]
		tb.AddHost(name, func(now time.Time, pkt *wire.Packet) {
			if pkt.Type == wire.TypeMulticast && pkt.Origin != name && pkt.Origin != core.FlushOrigin {
				acc.lat.Add(float64(now.UnixNano()-pkt.SentAt) / 1e6)
				acc.deliveries++
			}
		}, func(*wire.Packet) time.Duration { return s.Costs.HostProc })
		if _, err := rn.attachClient(attach[pi], name, core.FaceClient, s.LinkDelay); err != nil {
			return nil, err
		}
	}

	// RP bootstrap: R1 announces, flood settles during warmup.
	info := copss.RPInfo{Name: "/rp1", Prefixes: copss.PartitionPrefixes(s.World.Map.RegionNames()), Seq: 1}
	var ann ndn.SliceSink
	if err := rn.router("R1").BecomeRPTo(info, &ann); err != nil {
		return nil, err
	}
	t0 := tb.Now()
	tb.Schedule(t0.Add(time.Millisecond), func(now time.Time) {
		tb.Emit(now, "R1", ann.Actions)
	})

	// Subscriptions at half warmup.
	subAt := t0.Add(s.Warmup / 2)
	for pi, p := range s.Trace.Players {
		pi, p := pi, p
		area, ok := s.World.Map.Area(p.Area)
		if !ok {
			return nil, fmt.Errorf("testbed: unknown area %v", p.Area)
		}
		cds := area.SubscriptionCDs()
		tb.Schedule(subAt, func(now time.Time) {
			tb.Emit(now, clientName(pi), []ndn.Action{{Face: 0, Packet: &wire.Packet{
				Type: wire.TypeSubscribe,
				CDs:  cds,
			}}})
		})
	}

	// Publish events from the trace.
	start := t0.Add(s.Warmup)
	for i, u := range s.Trace.Updates {
		u := u
		seq := uint64(i + 1)
		at := start.Add(u.At)
		tb.Schedule(at, func(now time.Time) {
			res.Published++
			tb.Emit(now, clientName(u.Player), []ndn.Action{{Face: 0, Packet: &wire.Packet{
				Type:    wire.TypeMulticast,
				CDs:     []cd.CD{u.CD},
				Origin:  clientName(u.Player),
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
