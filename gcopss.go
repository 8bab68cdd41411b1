// Package gcopss is the public face of the G-COPSS library: a decentralized,
// content-centric communication infrastructure for multiplayer games,
// reproducing "G-COPSS: A Content Centric Communication Infrastructure for
// Gaming Applications" (ICDCS 2012).
//
// The package offers an embeddable in-process fabric: build a topology of
// G-COPSS routers, pick Rendezvous Points, attach players and snapshot
// brokers, and exchange updates addressed by hierarchical game-map positions
// instead of host addresses. Under the hood it drives the same router
// engines that power the repository's testbed, TCP daemon and evaluation
// suite (see internal/core and DESIGN.md).
//
// A minimal session:
//
//	net, _ := gcopss.New(5, 5)                     // 5 regions × 5 zones
//	net.AddRouter("R1")
//	net.AddRouter("R2")
//	net.Link("R1", "R2")
//	net.StartRP("R1", "/rp1")                      // anchor the multicast trees
//	soldier, _ := net.Join("soldier", "R2", "/1/2")
//	plane, _ := net.Join("plane", "R1", "/1")
//	plane.Publish("flare7", []byte("fired"))       // soldier sees the sky above
//	u := <-soldier.Updates()
//
// Delivery is synchronous and loss-free within the process; the paper's
// latency and load behaviour is reproduced by the discrete-event testbed and
// the trace-driven simulator, not by this facade.
package gcopss

import (
	"fmt"
	"sync"
	"time"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Update is one received game event.
type Update struct {
	// CD is the content descriptor the update was published to ("/1/2").
	CD string
	// Origin is the publishing player's ID.
	Origin string
	// ObjectID identifies the modified object, when the publisher tagged
	// one.
	ObjectID string
	// Data is the update body.
	Data []byte
	// Seq is the publisher's sequence number.
	Seq uint64
}

// updateBuffer is the per-player channel capacity; overflow drops the
// oldest pending update (games prefer fresh state over stale backlog).
const updateBuffer = 256

type wireKey struct {
	router string
	face   ndn.FaceID
}

type endpointKind int

const (
	endpointPlayer endpointKind = iota + 1
	endpointBroker
)

type wireDest struct {
	router   string
	face     ndn.FaceID
	endpoint string
	kind     endpointKind
}

type delivery struct {
	router string
	face   ndn.FaceID
	pkt    *wire.Packet
}

// Network is an in-process G-COPSS fabric. All methods are safe for
// concurrent use; packet processing is serialized and synchronous, so a
// Publish returns only after every in-process subscriber's channel has been
// offered the update.
type Network struct {
	mu sync.Mutex

	// gameMap is immutable after New; reads need no lock.
	gameMap *gamemap.Map

	// routers maps router names to their cores.
	//
	//gcopss:guardedby mu
	routers map[string]*core.Router
	// wires maps (router, face) to the far end of the link.
	//
	//gcopss:guardedby mu
	wires map[wireKey]wireDest
	// players maps player names to their in-process endpoints.
	//
	//gcopss:guardedby mu
	players map[string]*Player
	// brokers maps broker names to their in-process hosts.
	//
	//gcopss:guardedby mu
	brokers map[string]*brokerHost
	// nextFace is the per-router face ID allocator.
	//
	//gcopss:guardedby mu
	nextFace map[string]ndn.FaceID

	// rpSeq numbers RP announcements.
	//
	//gcopss:guardedby mu
	rpSeq uint64
	// queue holds deliveries drained by the synchronous pump.
	//
	//gcopss:guardedby mu
	queue []delivery
	// sink collects one router call's actions for enqueue; reused across
	// calls, so it never outlives the call that filled it.
	//
	//gcopss:guardedby mu
	sink ndn.SliceSink
	// dropped counts updates lost to full player channels.
	//
	//gcopss:guardedby mu
	dropped uint64
	// closed marks a shut-down fabric.
	//
	//gcopss:guardedby mu
	closed bool
}

type brokerHost struct {
	b      *broker.Broker
	router string
	face   ndn.FaceID
}

// New creates a fabric over a uniform hierarchical map with the given
// numbers of regions and zones per region (the paper's world is 5×5).
func New(regions, zones int) (*Network, error) {
	m, err := gamemap.NewGrid(regions, zones)
	if err != nil {
		return nil, fmt.Errorf("gcopss: %w", err)
	}
	return &Network{
		gameMap:  m,
		routers:  make(map[string]*core.Router),
		wires:    make(map[wireKey]wireDest),
		players:  make(map[string]*Player),
		brokers:  make(map[string]*brokerHost),
		nextFace: make(map[string]ndn.FaceID),
	}, nil
}

// Map exposes the game map (areas, visibility, movement classification).
func (n *Network) Map() *gamemap.Map { return n.gameMap }

// AddRouter creates a router node.
func (n *Network) AddRouter(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return fmt.Errorf("gcopss: network closed")
	}
	if _, dup := n.routers[name]; dup {
		return fmt.Errorf("gcopss: duplicate router %q", name)
	}
	n.routers[name] = core.NewRouter(name)
	return nil
}

// Link connects two routers bidirectionally.
func (n *Network) Link(a, b string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	ra, ok := n.routers[a]
	if !ok {
		return fmt.Errorf("gcopss: unknown router %q", a)
	}
	rb, ok := n.routers[b]
	if !ok {
		return fmt.Errorf("gcopss: unknown router %q", b)
	}
	fa, fb := n.allocFace(a), n.allocFace(b)
	ra.AddFace(fa, core.FaceRouter)
	rb.AddFace(fb, core.FaceRouter)
	n.wires[wireKey{a, fa}] = wireDest{router: b, face: fb}
	n.wires[wireKey{b, fb}] = wireDest{router: a, face: fa}
	return nil
}

// allocFace hands out the next face ID on a router. Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) allocFace(router string) ndn.FaceID {
	n.nextFace[router]++
	return n.nextFace[router]
}

// StartRP makes a router host a Rendezvous Point serving the entire map
// partition (one prefix per region plus the world airspace) and the
// broker namespaces, and floods the announcement.
func (n *Network) StartRP(router, rpName string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.routers[router]
	if !ok {
		return fmt.Errorf("gcopss: unknown router %q", router)
	}
	prefixes := []cd.CD{cd.MustNew("")}
	for _, region := range n.gameMap.RegionNames() {
		prefixes = append(prefixes, cd.MustNew(region))
	}
	prefixes = append(prefixes,
		cd.MustNew(broker.CtlComponent), cd.MustNew(broker.DataComponent))
	n.rpSeq++
	n.sink.Reset()
	if err := r.BecomeRPTo(copss.RPInfo{Name: rpName, Prefixes: prefixes, Seq: n.rpSeq}, &n.sink); err != nil {
		return fmt.Errorf("gcopss: start RP: %w", err)
	}
	n.enqueue(router, n.sink.Actions)
	n.drain()
	return nil
}

// enqueue resolves actions into deliveries. Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) enqueue(fromRouter string, actions []ndn.Action) {
	for _, a := range actions {
		dest, wired := n.wires[wireKey{fromRouter, a.Face}]
		if !wired {
			continue
		}
		if dest.endpoint != "" {
			n.deliverEndpoint(dest, a.Packet)
			continue
		}
		n.queue = append(n.queue, delivery{router: dest.router, face: dest.face, pkt: a.Packet})
	}
}

// drain processes queued deliveries to quiescence. Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) drain() {
	now := time.Now()
	for len(n.queue) > 0 {
		d := n.queue[0]
		n.queue = n.queue[1:]
		r, ok := n.routers[d.router]
		if !ok {
			continue
		}
		n.sink.Reset()
		r.HandlePacketTo(now, d.face, d.pkt, &n.sink)
		n.enqueue(d.router, n.sink.Actions)
	}
}

// deliverEndpoint hands a packet to a player or broker. Caller holds the
// lock.
//
//gcopss:locked mu
func (n *Network) deliverEndpoint(dest wireDest, pkt *wire.Packet) {
	switch dest.kind {
	case endpointPlayer:
		p := n.players[dest.endpoint]
		if p != nil {
			p.handlePacket(pkt)
		}
	case endpointBroker:
		bh := n.brokers[dest.endpoint]
		if bh != nil {
			for _, out := range bh.b.HandlePacket(pkt) {
				n.inject(bh.router, bh.face, out)
			}
		}
	}
}

// inject queues a packet as if sent by an endpoint attached at (router,
// face). Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) inject(router string, face ndn.FaceID, pkt *wire.Packet) {
	n.queue = append(n.queue, delivery{router: router, face: face, pkt: pkt})
}

// send injects and drains. Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) send(router string, face ndn.FaceID, pkts ...*wire.Packet) {
	for _, p := range pkts {
		n.inject(router, face, p)
	}
	n.drain()
}

// AttachBroker creates a snapshot broker on a router, serving the given
// area paths (empty means every leaf of the map). The broker immediately
// subscribes to its serving leaves and control channels, and the router
// learns an NDN route for the snapshot namespace.
func (n *Network) AttachBroker(router, name string, areaPaths ...string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, ok := n.routers[router]
	if !ok {
		return fmt.Errorf("gcopss: unknown router %q", router)
	}
	if _, dup := n.brokers[name]; dup {
		return fmt.Errorf("gcopss: duplicate broker %q", name)
	}
	var leaves []cd.CD
	if len(areaPaths) == 0 {
		leaves = n.gameMap.Leaves()
	} else {
		for _, p := range areaPaths {
			area, err := n.lookupArea(p)
			if err != nil {
				return err
			}
			leaves = append(leaves, area.LeafCD())
		}
	}
	b := broker.New(name, leaves)
	face := n.allocFace(router)
	r.AddFace(face, core.FaceClient)
	n.wires[wireKey{router, face}] = wireDest{endpoint: name, kind: endpointBroker}
	n.brokers[name] = &brokerHost{b: b, router: router, face: face}

	// NDN routes for the snapshot namespace: every router forwards toward
	// this broker's router by flooding-free static setup (shortest paths on
	// the router graph are not tracked here; a spanning propagation via
	// existing wires keeps it simple and loop-free because FIB entries are
	// only set once per router).
	n.installSnapshotRoutes(router, face)

	n.send(router, face, &wire.Packet{Type: wire.TypeSubscribe, CDs: b.SubscriptionCDs()})
	return nil
}

// installSnapshotRoutes BFSes from the broker's router outward, pointing
// every router's /snapshot route back along the tree. Each router's wires are
// visited in ascending face order, so where two equal-hop paths lead back to
// the broker the choice is the same on every run. Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) installSnapshotRoutes(origin string, brokerFace ndn.FaceID) {
	n.routers[origin].NDN().FIB().RemovePrefix(broker.SnapshotPrefix)
	n.routers[origin].NDN().FIB().Add(broker.SnapshotPrefix, brokerFace)
	visited := map[string]bool{origin: true}
	frontier := []string{origin}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for f := ndn.FaceID(1); f <= n.nextFace[cur]; f++ {
			dest, wired := n.wires[wireKey{cur, f}]
			if !wired || dest.router == "" || visited[dest.router] {
				continue
			}
			visited[dest.router] = true
			n.routers[dest.router].NDN().FIB().RemovePrefix(broker.SnapshotPrefix)
			n.routers[dest.router].NDN().FIB().Add(broker.SnapshotPrefix, dest.face)
			frontier = append(frontier, dest.router)
		}
	}
}

// lookupArea resolves an area path like "/1/2", "" or "/" (the world).
func (n *Network) lookupArea(path string) (*gamemap.Area, error) {
	if path == "/" {
		path = ""
	}
	c, err := cd.Parse(path)
	if err != nil {
		return nil, fmt.Errorf("gcopss: bad area path %q: %w", path, err)
	}
	area, ok := n.gameMap.Area(c)
	if !ok {
		return nil, fmt.Errorf("gcopss: no area %q on the map", path)
	}
	return area, nil
}

// Stats reports fabric counters.
func (n *Network) Stats() (routers, players, brokers int, droppedUpdates uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.routers), len(n.players), len(n.brokers), n.dropped
}

// Close tears the fabric down; player channels are closed.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, p := range n.players {
		close(p.updates)
	}
	n.players = map[string]*Player{}
}
