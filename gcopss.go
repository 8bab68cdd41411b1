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
	"errors"
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

// errClosed is what every mutating method returns once Close has run.
var errClosed = errors.New("gcopss: network closed")

// node is one router and its face table.
type node struct {
	r *core.Router
	// faces[f-1] is the far end of face f. Faces are numbered from 1 in the
	// order they are wired and never reused.
	faces []endpoint
}

// endpoint is the far end of a face: another router's face, a player or a
// broker. The zero value is a face whose player has left.
type endpoint struct {
	router *node
	face   ndn.FaceID
	player *Player
	broker *brokerHost
}

// addFace wires the next face of nd to far and returns its ID.
func (nd *node) addFace(kind core.FaceKind, far endpoint) ndn.FaceID {
	nd.faces = append(nd.faces, far)
	f := ndn.FaceID(len(nd.faces))
	nd.r.AddFace(f, kind)
	return f
}

type delivery struct {
	to   *node
	face ndn.FaceID
	pkt  *wire.Packet
}

// Network is an in-process G-COPSS fabric. All methods are safe for
// concurrent use; packet processing is serialized and synchronous, so a
// Publish returns only after every in-process subscriber's channel has been
// offered the update.
type Network struct {
	mu sync.Mutex

	// gameMap is immutable after New; reads need no lock.
	gameMap *gamemap.Map

	// routers maps router names to their nodes.
	//
	//gcopss:guardedby mu
	routers map[string]*node
	// players maps player names to their in-process endpoints.
	//
	//gcopss:guardedby mu
	players map[string]*Player
	// brokers maps broker names to their in-process hosts.
	//
	//gcopss:guardedby mu
	brokers map[string]*brokerHost

	// announceSeq numbers the FIBAdd floods of StartRP and AttachBroker.
	//
	//gcopss:guardedby mu
	announceSeq uint64
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
	b    *broker.Broker
	at   *node
	face ndn.FaceID
}

// New creates a fabric over a uniform hierarchical map with the given
// numbers of regions and zones per region (the paper's world is 5×5).
func New(regions, zones int) (*Network, error) {
	m, err := gamemap.NewGrid(regions, zones)
	if err != nil {
		return nil, fmt.Errorf("gcopss: %w", err)
	}
	return &Network{
		gameMap: m,
		routers: make(map[string]*node),
		players: make(map[string]*Player),
		brokers: make(map[string]*brokerHost),
	}, nil
}

// Map exposes the game map (areas, visibility, movement classification).
func (n *Network) Map() *gamemap.Map { return n.gameMap }

// AddRouter creates a router node.
func (n *Network) AddRouter(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errClosed
	}
	if _, dup := n.routers[name]; dup {
		return fmt.Errorf("gcopss: duplicate router %q", name)
	}
	n.routers[name] = &node{r: core.NewRouter(name)}
	return nil
}

// router looks up a router by name. Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) router(name string) (*node, error) {
	nd, ok := n.routers[name]
	if !ok {
		return nil, fmt.Errorf("gcopss: unknown router %q", name)
	}
	return nd, nil
}

// Link connects two routers bidirectionally.
func (n *Network) Link(a, b string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errClosed
	}
	na, err := n.router(a)
	if err != nil {
		return err
	}
	nb, err := n.router(b)
	if err != nil {
		return err
	}
	fa := na.addFace(core.FaceRouter, endpoint{})
	fb := nb.addFace(core.FaceRouter, endpoint{router: na, face: fa})
	na.faces[fa-1] = endpoint{router: nb, face: fb}
	return nil
}

// StartRP makes a router host a Rendezvous Point serving the entire map
// partition (one prefix per region plus the world airspace) and the
// broker namespaces, and floods the announcement.
func (n *Network) StartRP(router, rpName string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errClosed
	}
	nd, err := n.router(router)
	if err != nil {
		return err
	}
	prefixes := append(copss.PartitionPrefixes(n.gameMap.RegionNames()),
		cd.MustNew(broker.CtlComponent), cd.MustNew(broker.DataComponent))
	n.announceSeq++
	n.sink.Reset()
	if err := nd.r.BecomeRPTo(copss.RPInfo{Name: rpName, Prefixes: prefixes, Seq: n.announceSeq}, &n.sink); err != nil {
		return fmt.Errorf("gcopss: start RP: %w", err)
	}
	n.enqueue(nd, n.sink.Actions)
	n.drain()
	return nil
}

// enqueue hands actions to the far end of their faces: players and brokers
// take them at once, routers through the queue. Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) enqueue(from *node, actions []ndn.Action) {
	for _, a := range actions {
		if a.Face < 1 || int(a.Face) > len(from.faces) {
			continue
		}
		switch far := from.faces[a.Face-1]; {
		case far.router != nil:
			n.inject(far.router, far.face, a.Packet)
		case far.player != nil:
			far.player.handlePacket(a.Packet)
		case far.broker != nil:
			for _, out := range far.broker.b.HandlePacket(a.Packet) {
				n.inject(from, a.Face, out)
			}
		}
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
		n.sink.Reset()
		d.to.r.HandlePacketTo(now, d.face, d.pkt, &n.sink)
		n.enqueue(d.to, n.sink.Actions)
	}
}

// inject queues a packet arriving at a router face. Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) inject(to *node, face ndn.FaceID, pkt *wire.Packet) {
	n.queue = append(n.queue, delivery{to: to, face: face, pkt: pkt})
}

// send injects and drains. Caller holds the lock.
//
//gcopss:locked mu
func (n *Network) send(to *node, face ndn.FaceID, pkts ...*wire.Packet) {
	for _, p := range pkts {
		n.inject(to, face, p)
	}
	n.drain()
}

// AttachBroker creates a snapshot broker on a router, serving the given
// area paths (empty means every leaf of the map). The broker subscribes to
// its serving leaves and control channels and announces the snapshot
// namespace as gbroker does, with a FIBAdd flood: every router routes
// /snapshot toward the face it first hears the flood on, so the latest
// broker attached wins.
func (n *Network) AttachBroker(router, name string, areaPaths ...string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errClosed
	}
	nd, err := n.router(router)
	if err != nil {
		return err
	}
	if _, dup := n.brokers[name]; dup {
		return fmt.Errorf("gcopss: duplicate broker %q", name)
	}
	var leaves []cd.CD
	if len(areaPaths) == 0 {
		leaves = n.gameMap.Leaves()
	}
	for _, p := range areaPaths {
		area, err := n.gameMap.Lookup(p)
		if err != nil {
			return err
		}
		leaves = append(leaves, area.LeafCD())
	}
	bh := &brokerHost{b: broker.New(name, leaves), at: nd}
	bh.face = nd.addFace(core.FaceClient, endpoint{broker: bh})
	n.brokers[name] = bh
	n.announceSeq++
	n.send(nd, bh.face,
		&wire.Packet{Type: wire.TypeSubscribe, CDs: bh.b.SubscriptionCDs()},
		&wire.Packet{Type: wire.TypeFIBAdd, Name: broker.SnapshotPrefix, Seq: n.announceSeq, Origin: name})
	return nil
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
