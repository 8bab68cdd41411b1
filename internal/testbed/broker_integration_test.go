package testbed

import (
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// brokerScenario wires: broker at R4, publisher at R5, mover at R6 — so
// snapshot traffic crosses the whole Fig. 3b topology.
type brokerScenario struct {
	tb    *Testbed
	rn    *routerNet
	b     *broker.Broker
	setup *Setup
}

func newBrokerScenario(t *testing.T) *brokerScenario {
	t.Helper()
	s, err := PaperSetup()
	if err != nil {
		t.Fatal(err)
	}
	tb := New()
	rn, err := buildRouterNet(tb, s)
	if err != nil {
		t.Fatal(err)
	}

	// RP at R1 serving the game partition plus the snapshot namespaces.
	prefixes := append(copss.PartitionPrefixes(s.World.Map.RegionNames()),
		cd.MustNew(broker.CtlComponent), cd.MustNew(broker.DataComponent))
	var ann ndn.SliceSink
	if err := rn.router("R1").BecomeRPTo(copss.RPInfo{Name: "/rp1", Prefixes: prefixes, Seq: 1}, &ann); err != nil {
		t.Fatal(err)
	}
	tb.Schedule(tb.Now().Add(time.Millisecond), func(now time.Time) { tb.Emit(now, "R1", ann.Actions) })

	// Broker serving zone /1/1 and region airspace /1/, attached to R4.
	b := broker.New("broker1", []cd.CD{cd.MustParse("/1/1"), cd.MustParse("/1/")}, broker.WithDecay(0.95))
	tb.AddNode("broker1", func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
		for _, p := range b.HandlePacket(pkt) {
			sink.Emit(ndn.Action{Face: 0, Packet: p})
		}
	}, func(*wire.Packet) time.Duration { return 200 * time.Microsecond }, 50*time.Microsecond)
	bFace, err := rn.attachClient("R4", "broker1", core.FaceClient, s.LinkDelay)
	if err != nil {
		t.Fatal(err)
	}
	// NDN routes for the snapshot namespace: toward R4, then the broker.
	if err := rn.routePrefix(broker.SnapshotPrefix, rn.id("R4"), bFace); err != nil {
		t.Fatal(err)
	}
	// Broker subscriptions (serving leaves + control channels).
	tb.Schedule(tb.Now().Add(100*time.Millisecond), func(now time.Time) {
		tb.Emit(now, "broker1", []ndn.Action{{Face: 0, Packet: &wire.Packet{
			Type: wire.TypeSubscribe, CDs: b.SubscriptionCDs(),
		}}})
	})
	// Broker cyclic pacing: 1 ms per object slot.
	end := tb.Now().Add(time.Hour)
	var tick func(now time.Time)
	tick = func(now time.Time) {
		var out []ndn.Action
		for _, p := range b.Tick() {
			out = append(out, ndn.Action{Face: 0, Packet: p})
		}
		if len(out) > 0 {
			tb.Emit(now, "broker1", out)
		}
		if now.Before(end) {
			tb.Schedule(now.Add(time.Millisecond), tick)
		}
	}
	tb.Schedule(tb.Now().Add(time.Millisecond), tick)

	return &brokerScenario{tb: tb, rn: rn, b: b, setup: s}
}

// addEndpoint attaches a simple client node and returns a send function.
func (sc *brokerScenario) addEndpoint(t *testing.T, name, router string,
	handler func(now time.Time, pkt *wire.Packet) []*wire.Packet) func(now time.Time, pkts ...*wire.Packet) {
	t.Helper()
	sc.tb.AddNode(name, func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
		for _, p := range handler(now, pkt) {
			sink.Emit(ndn.Action{Face: 0, Packet: p})
		}
	}, func(*wire.Packet) time.Duration { return 20 * time.Microsecond }, 0)
	if _, err := sc.rn.attachClient(router, name, core.FaceClient, sc.setup.LinkDelay); err != nil {
		t.Fatal(err)
	}
	return func(now time.Time, pkts ...*wire.Packet) {
		var out []ndn.Action
		for _, p := range pkts {
			out = append(out, ndn.Action{Face: 0, Packet: p})
		}
		sc.tb.Emit(now, name, out)
	}
}

// publishUpdates pushes object updates from a publisher at R5 through the
// pub/sub fabric so the broker builds its snapshot.
func (sc *brokerScenario) publishUpdates(t *testing.T, send func(time.Time, ...*wire.Packet), at time.Time) {
	t.Helper()
	for i, obj := range []string{"objA", "objB", "objC"} {
		pkt := &wire.Packet{
			Type:    wire.TypeMulticast,
			CDs:     []cd.CD{cd.MustParse("/1/1")},
			Origin:  "pub",
			Seq:     uint64(i + 1),
			Payload: broker.EncodeUpdate(obj, make([]byte, 100+10*i)),
		}
		at = at.Add(5 * time.Millisecond)
		func(p *wire.Packet, when time.Time) {
			sc.tb.Schedule(when, func(now time.Time) { send(now, p) })
		}(pkt, at)
	}
}

func TestBrokerQREndToEnd(t *testing.T) {
	sc := newBrokerScenario(t)
	pubSend := sc.addEndpoint(t, "pub", "R5", func(time.Time, *wire.Packet) []*wire.Packet { return nil })

	fetch := broker.NewFetch(cd.MustParse("/1/1"), flowctl.WithWindow(1, 15, 32))
	var doneAt time.Time
	moverSend := sc.addEndpoint(t, "mover", "R6", func(now time.Time, pkt *wire.Packet) []*wire.Packet {
		out, done := fetch.HandleDataAt(now, pkt)
		if done && doneAt.IsZero() {
			doneAt = now
		}
		return out
	})

	start := sc.tb.Now().Add(500 * time.Millisecond)
	sc.publishUpdates(t, pubSend, start)

	fetchAt := start.Add(500 * time.Millisecond)
	sc.tb.Schedule(fetchAt, func(now time.Time) { moverSend(now, fetch.StartAt(now)...) })

	if err := sc.tb.Run(fetchAt.Add(10*time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if !fetch.Done() {
		t.Fatalf("QR fetch incomplete: received %d", fetch.Received())
	}
	if fetch.Received() != 3 {
		t.Errorf("received %d objects, want 3", fetch.Received())
	}
	if doneAt.IsZero() || doneAt.Sub(fetchAt) > time.Second {
		t.Errorf("convergence took %v", doneAt.Sub(fetchAt))
	}
	_, queries, _ := sc.b.Stats()
	if queries < 4 { // manifest + 3 objects
		t.Errorf("broker served %d queries", queries)
	}
}

func TestBrokerCyclicEndToEnd(t *testing.T) {
	sc := newBrokerScenario(t)
	pubSend := sc.addEndpoint(t, "pub", "R5", func(time.Time, *wire.Packet) []*wire.Packet { return nil })

	fetch := broker.NewCyclicFetch(cd.MustParse("/1/1"), "mover")
	var doneAt time.Time
	moverSend := sc.addEndpoint(t, "mover", "R6", func(now time.Time, pkt *wire.Packet) []*wire.Packet {
		out, done := fetch.HandleMulticast(pkt)
		if done && doneAt.IsZero() {
			doneAt = now
		}
		return out
	})

	start := sc.tb.Now().Add(500 * time.Millisecond)
	sc.publishUpdates(t, pubSend, start)

	fetchAt := start.Add(500 * time.Millisecond)
	sc.tb.Schedule(fetchAt, func(now time.Time) { moverSend(now, fetch.Start()...) })

	if err := sc.tb.Run(fetchAt.Add(10*time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if !fetch.Done() {
		t.Fatalf("cyclic fetch incomplete: received %d", fetch.Received())
	}
	if fetch.Received() != 3 {
		t.Errorf("received %d objects, want 3", fetch.Received())
	}
	if doneAt.IsZero() || doneAt.Sub(fetchAt) > time.Second {
		t.Errorf("convergence took %v", doneAt.Sub(fetchAt))
	}
	// The session must have closed after the mover's stop control.
	if got := sc.b.ActiveSessions(); len(got) != 0 {
		t.Errorf("sessions still active: %v", got)
	}
}
