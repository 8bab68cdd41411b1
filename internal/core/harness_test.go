package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// harness wires routers and clients into a synchronous in-memory network:
// actions returned by a router are enqueued FIFO and delivered in order.
// It gives the protocol tests deterministic, observable packet flow.
type harness struct {
	t       *testing.T
	routers map[string]*Router
	wires   map[wireKey]wireDest
	clients map[string]*testClient
	queue   []netEvent
	now     time.Time

	delivered int // total packets processed, guards against loops
}

type wireKey struct {
	router string
	face   ndn.FaceID
}

type wireDest struct {
	router string // "" when the destination is a client
	face   ndn.FaceID
	client string
}

type testClient struct {
	name     string
	router   string
	face     ndn.FaceID
	received []*wire.Packet
	onPacket func(*wire.Packet) []*wire.Packet // optional producer behaviour
}

type netEvent struct {
	router string
	face   ndn.FaceID
	pkt    *wire.Packet
}

// The router's emission API is sink-only; these four helpers are the tests'
// slice view of it. Each returns the emitted actions (nil when there were
// none).

func handle(r *Router, now time.Time, from ndn.FaceID, pkt *wire.Packet) []ndn.Action {
	var sink ndn.SliceSink
	r.HandlePacketTo(now, from, pkt, &sink)
	return sink.Actions
}

func becomeRP(r *Router, info copss.RPInfo) ([]ndn.Action, error) {
	var sink ndn.SliceSink
	err := r.BecomeRPTo(info, &sink)
	return sink.Actions, err
}

func becomeRPAt(r *Router, now time.Time, info copss.RPInfo) ([]ndn.Action, error) {
	var sink ndn.SliceSink
	err := r.BecomeRPAt(now, info, &sink)
	return sink.Actions, err
}

func tickActions(r *Router, now time.Time) []ndn.Action {
	var sink ndn.SliceSink
	r.TickTo(now, &sink)
	return sink.Actions
}

func newHarness(t *testing.T) *harness {
	return &harness{
		t:       t,
		routers: make(map[string]*Router),
		wires:   make(map[wireKey]wireDest),
		clients: make(map[string]*testClient),
		now:     time.Unix(0, 0),
	}
}

func (h *harness) addRouter(name string, opts ...Option) *Router {
	r := NewRouter(name, opts...)
	h.routers[name] = r
	return r
}

// connect wires face f1 of r1 to face f2 of r2 (router-router link).
func (h *harness) connect(r1 string, f1 ndn.FaceID, r2 string, f2 ndn.FaceID) {
	h.routers[r1].AddFace(f1, FaceRouter)
	h.routers[r2].AddFace(f2, FaceRouter)
	h.wires[wireKey{r1, f1}] = wireDest{router: r2, face: f2}
	h.wires[wireKey{r2, f2}] = wireDest{router: r1, face: f1}
}

// attach connects a client to a router face.
func (h *harness) attach(client, router string, face ndn.FaceID) *testClient {
	c := &testClient{name: client, router: router, face: face}
	h.clients[client] = c
	h.routers[router].AddFace(face, FaceClient)
	h.wires[wireKey{router, face}] = wireDest{client: client}
	return c
}

// fromClient injects a packet as if sent by the client.
func (h *harness) fromClient(client string, pkt *wire.Packet) {
	c := h.clients[client]
	h.queue = append(h.queue, netEvent{router: c.router, face: c.face, pkt: pkt})
}

// enqueueActions queues a router's outgoing actions.
func (h *harness) enqueueActions(router string, actions []ndn.Action) {
	for _, a := range actions {
		dest, ok := h.wires[wireKey{router, a.Face}]
		if !ok {
			h.t.Fatalf("router %s sent packet %v on unwired face %d", router, a.Packet.Type, a.Face)
		}
		if dest.client != "" {
			c := h.clients[dest.client]
			c.received = append(c.received, a.Packet)
			if c.onPacket != nil {
				for _, reply := range c.onPacket(a.Packet) {
					h.queue = append(h.queue, netEvent{router: c.router, face: c.face, pkt: reply})
				}
			}
			continue
		}
		h.queue = append(h.queue, netEvent{router: dest.router, face: dest.face, pkt: a.Packet})
	}
}

// step processes one queued packet; it reports whether any work was done.
func (h *harness) step() bool {
	if len(h.queue) == 0 {
		return false
	}
	ev := h.queue[0]
	h.queue = h.queue[1:]
	h.delivered++
	if h.delivered > 1_000_000 {
		h.t.Fatal("harness: packet loop detected")
	}
	r := h.routers[ev.router]
	h.enqueueActions(ev.router, handle(r, h.now, ev.face, ev.pkt))
	return true
}

// run drains the queue completely.
func (h *harness) run() {
	for h.step() {
	}
}

// multicastsReceived returns the payloads of Multicast packets a client got
// (migration flush markers excluded, as a real client would ignore them).
func (c *testClient) multicastsReceived() []string {
	var out []string
	for _, p := range c.received {
		if p.Type == wire.TypeMulticast && p.Origin != FlushOrigin {
			out = append(out, string(p.Payload))
		}
	}
	return out
}

// uniqueSeqs returns the distinct (origin, seq) pairs among received
// multicasts — the loss/duplication metric for migration tests. Flush
// markers are excluded.
func (c *testClient) uniqueSeqs() map[string]int {
	out := make(map[string]int)
	for _, p := range c.received {
		if p.Type == wire.TypeMulticast && p.Origin != FlushOrigin {
			out[fmt.Sprintf("%s/%d", p.Origin, p.Seq)]++
		}
	}
	return out
}

func mcast(c string, origin string, seq uint64, payload string) *wire.Packet {
	return &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{cd.MustParse(c)},
		Origin:  origin,
		Seq:     seq,
		Payload: []byte(payload),
	}
}

func sub(cds ...string) *wire.Packet {
	p := &wire.Packet{Type: wire.TypeSubscribe}
	for _, c := range cds {
		p.CDs = append(p.CDs, cd.MustParse(c))
	}
	return p
}

func unsub(cds ...string) *wire.Packet {
	p := &wire.Packet{Type: wire.TypeUnsubscribe}
	for _, c := range cds {
		p.CDs = append(p.CDs, cd.MustParse(c))
	}
	return p
}
