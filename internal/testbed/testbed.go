// Package testbed is the packet-level discrete-event testbed of the
// microbenchmark (Section V-A): six routers in the Fig. 3b topology, 62
// players (2 per area of the 5×5 map), and three complete systems — G-COPSS
// (the real core.Router engines), an NDN query/response solution in the
// VoCCN/ACT style, and an IP client/server baseline — all driven by the same
// publish trace.
//
// Every node (router or host) is a single-threaded processor: packets queue
// FIFO and each costs a type-dependent service time, so computation overhead
// and queueing — the quantities the paper's testbed isolates — are modelled
// exactly. Processing costs default to the CCNx-derived values the paper
// measures (content-router processing ≈ 3.3 ms, IP forwarding two orders of
// magnitude cheaper, server game-loop processing ≈ 6 ms).
//
// The testbed runs on one event.Scheduler. Packet deliveries and per-node
// timers (ScheduleNode) are keyed events ordered by a canonical key —
// linkID<<32|per-link sequence for deliveries — and set-up timers
// (Schedule/Every/Inject) are global events, which at any one instant run
// before every keyed event. The trace is a pure function of the scenario.
package testbed

import (
	"fmt"
	"time"

	"github.com/icn-gaming/gcopss/internal/event"
	"github.com/icn-gaming/gcopss/internal/faultnet"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Costs is the node-processing cost model.
type Costs struct {
	// RouterProc is the per-packet processing cost of a content router
	// (G-COPSS or NDN engine): FIB/PIT/ST lookups on CCNx-style code.
	RouterProc time.Duration
	// PerCopy is the marginal cost of each additional outgoing copy when a
	// router fans a packet out to multiple faces.
	PerCopy time.Duration
	// IPForward is the per-packet cost of an application-level IP
	// forwarder ("IP routers are much more efficient than the G-COPSS
	// routers").
	IPForward time.Duration
	// ServerBase is the per-update processing cost at the game server
	// (recipient resolution, location translation, collision detection).
	ServerBase time.Duration
	// ServerPerRecipient is the per-recipient unicast serialization cost at
	// the server.
	ServerPerRecipient time.Duration
	// HostProc is the (small) per-packet cost at player hosts.
	HostProc time.Duration
}

// PaperCosts returns the cost model of the Fig. 4 lab testbed (Section V-A):
// 3.3 ms content routers, 0.1 ms IP forwarders, a 6 ms server. It is fitted
// to that figure only; the §V-B trace-driven simulation has its own table,
// sim.PaperCosts, whose doc says why the per-recipient and host entries of
// the two differ.
func PaperCosts() Costs {
	return Costs{
		RouterProc:         3300 * time.Microsecond,
		PerCopy:            100 * time.Microsecond,
		IPForward:          100 * time.Microsecond,
		ServerBase:         6 * time.Millisecond,
		ServerPerRecipient: 500 * time.Microsecond,
		HostProc:           20 * time.Microsecond,
	}
}

// Handler is a node's packet handler: it runs at the packet's service-start
// time and emits the packets to send into the sink; they leave the node when
// service completes. The sink is only valid for the duration of the call
// (see ndn.ActionSink for the ownership rules).
type Handler func(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink)

// ProcFunc returns the base service time for a packet at a node; the
// per-copy surcharge is added by the testbed.
type ProcFunc func(pkt *wire.Packet) time.Duration

// link is one direction of a wire. id is assigned in Connect program order
// and, with the per-link transmit sequence seq, forms the canonical delivery
// tie-break key linkID<<32|seq. Links sit by value in Testbed.links.
type link struct {
	to    string
	toIdx int32 // the receiving node's slot in Testbed.list
	face  ndn.FaceID
	delay time.Duration
	id    uint32
	seq   uint32
}

// dest packs the link's far end — receiving node index and face — into the
// Payload.Int of a delivery event.
func (l *link) dest() int64 { return int64(l.toIdx)<<32 | int64(l.face) }

// maxFace bounds the face IDs Connect accepts: a node's wires sit in a slice
// indexed by face, and deliveries carry the face in 32 bits.
const maxFace = 1 << 16

// link returns the wire attached to face f of node n, or nil when f is
// unwired or out of range. The pointer is valid until the next Connect.
func (tb *Testbed) link(n *nodeState, f ndn.FaceID) *link {
	if uint(f) >= uint(len(n.links)) || n.links[f] == 0 {
		return nil
	}
	return &tb.links[n.links[f]-1]
}

// nodeState is one single-threaded network element, kept in Testbed.list.
type nodeState struct {
	name    string
	handle  Handler
	proc    ProcFunc
	perCopy time.Duration
	links   []int32 // indexed by FaceID: 1 + the wire's index in Testbed.links, 0 where none

	// selfID is the node's slot in the canonical-key ID space (shared with
	// directed link IDs); with selfSeq it forms the tie-break key for
	// ScheduleNode events, so node-local timers order deterministically
	// against deliveries.
	selfID    uint32
	selfSeq   uint32
	busyUntil time.Time

	// stats
	maxQueue     time.Duration // worst queueing delay observed
	packetEvents uint64
	bytes        float64 // integer-valued, so summation order cannot matter
}

// Testbed wires nodes and runs the discrete-event loop.
type Testbed struct {
	sched *event.Scheduler
	// list holds the nodes in AddNode order; a node's position is the dense
	// index delivery events carry, so the packet path never hashes a name.
	// nodes finds that index by name for the set-up API only. links holds
	// every directed wire in Connect order. Both are slabs of values that
	// grow only during set-up, so the packet path reads node and link state
	// without a pointer chase per object.
	list   []nodeState
	links  []link
	nodes  map[string]int32
	faults *faultnet.Injector

	nextLinkID uint32

	// deliver is the pre-bound receive callback for node events: binding the
	// method value once here means transmit schedules deliveries without
	// allocating a closure per packet.
	deliver event.CallHandler

	// scratch is the action sink handlers emit into, reused by every
	// delivery.
	scratch ndn.SliceSink
}

// New creates an empty testbed starting at virtual time zero.
func New() *Testbed {
	tb := &Testbed{
		sched: event.NewScheduler(time.Unix(0, 0)),
		nodes: make(map[string]int32),
	}
	tb.deliver = func(now time.Time, pl event.Payload) {
		tb.receive(now, int32(pl.Int>>32), ndn.FaceID(uint32(pl.Int)), pl.Ptr.(*wire.Packet))
	}
	return tb
}

// node returns the named node; the pointer is valid until the next AddNode.
func (tb *Testbed) node(name string) (*nodeState, bool) {
	i, ok := tb.nodes[name]
	if !ok {
		return nil, false
	}
	return &tb.list[i], true
}

// Now returns the current virtual time.
func (tb *Testbed) Now() time.Time { return tb.sched.Now() }

// SetFaults installs a fault injector on every link: each transmitted packet
// consults it and may be dropped, duplicated, delayed or reordered. Link
// keys are "from>to" (node names). The caller owns the injector's epoch —
// set it to the sim start so partition windows line up with virtual time.
func (tb *Testbed) SetFaults(in *faultnet.Injector) { tb.faults = in }

// Every schedules fn at start and then every interval after it, forever
// (the Run deadline bounds it). Drives recurring work like ARQ ticks.
func (tb *Testbed) Every(start time.Time, interval time.Duration, fn func(now time.Time)) {
	if interval <= 0 {
		return
	}
	var again func(now time.Time)
	again = func(now time.Time) {
		fn(now)
		tb.sched.At(now.Add(interval), again)
	}
	tb.sched.At(start, again)
}

// transmit puts one packet of size bytes on the wire from node n's
// face-link l at time at, applying link faults. It is the single choke point
// shared by the service path (receive) and the timer path (Emit).
func (tb *Testbed) transmit(n *nodeState, l *link, at time.Time, pkt *wire.Packet, size int) {
	copies := 1
	if tb.faults != nil {
		v := tb.faults.Decide(at, n.name+">"+l.to, pkt)
		if v.Drop {
			return
		}
		if v.Dup {
			copies = 2
		}
		at = at.Add(v.Delay)
	}
	n.bytes += float64(size)
	pl := event.Payload{Int: l.dest(), Ptr: pkt}
	for i := 0; i < copies; i++ {
		key := uint64(l.id)<<32 | uint64(l.seq)
		l.seq++
		tb.sched.PostNode(at.Add(l.delay), key, tb.deliver, pl)
	}
}

// AddNode registers a node with its handler and processing-cost function.
func (tb *Testbed) AddNode(name string, handle Handler, proc ProcFunc, perCopy time.Duration) {
	tb.nextLinkID++
	tb.nodes[name] = int32(len(tb.list))
	tb.list = append(tb.list, nodeState{
		name:    name,
		handle:  handle,
		proc:    proc,
		perCopy: perCopy,
		selfID:  tb.nextLinkID,
	})
}

// Connect wires face fa of node a to face fb of node b with the given
// propagation delay (both directions), which must be positive. Directed link
// IDs are assigned in call order, so topology construction order fixes the
// canonical delivery ordering.
func (tb *Testbed) Connect(a string, fa ndn.FaceID, b string, fb ndn.FaceID, delay time.Duration) error {
	if delay <= 0 {
		return fmt.Errorf("testbed: link %s–%s needs a positive delay, got %v", a, b, delay)
	}
	ia, ok := tb.nodes[a]
	if !ok {
		return fmt.Errorf("testbed: unknown node %q", a)
	}
	ib, ok := tb.nodes[b]
	if !ok {
		return fmt.Errorf("testbed: unknown node %q", b)
	}
	if err := tb.faceFree(ia, fa); err != nil {
		return err
	}
	if err := tb.faceFree(ib, fb); err != nil {
		return err
	}
	tb.nextLinkID++
	tb.attach(ia, fa, link{to: b, toIdx: ib, face: fb, delay: delay, id: tb.nextLinkID})
	tb.nextLinkID++
	tb.attach(ib, fb, link{to: a, toIdx: ia, face: fa, delay: delay, id: tb.nextLinkID})
	return nil
}

// faceFree reports why face f of node i cannot take a new wire, if it can't.
func (tb *Testbed) faceFree(i int32, f ndn.FaceID) error {
	n := &tb.list[i]
	if f < 0 || f > maxFace {
		return fmt.Errorf("testbed: %s face %d outside [0, %d]", n.name, f, maxFace)
	}
	if tb.link(n, f) != nil {
		return fmt.Errorf("testbed: %s face %d already wired", n.name, f)
	}
	return nil
}

// attach wires l to face f of node i, growing its face slice as needed.
func (tb *Testbed) attach(i int32, f ndn.FaceID, l link) {
	tb.links = append(tb.links, l)
	n := &tb.list[i]
	for int(f) >= len(n.links) {
		n.links = append(n.links, 0)
	}
	n.links[f] = int32(len(tb.links))
}

// Inject delivers a packet to a node's face at the given absolute time, as
// if it arrived from the wire.
func (tb *Testbed) Inject(at time.Time, node string, face ndn.FaceID, pkt *wire.Packet) {
	tb.sched.At(at, func(now time.Time) {
		if i, ok := tb.nodes[node]; ok {
			tb.receive(now, i, face, pkt)
		}
	})
}

// Schedule runs fn as a global event at the given absolute virtual time (for
// client timers).
func (tb *Testbed) Schedule(at time.Time, fn func(now time.Time)) {
	tb.sched.At(at, fn)
}

// ScheduleNode runs a pre-bound callback as a keyed event of the named node —
// the closure-free alternative to Schedule for per-node timers (a publishing
// host's update chain, say). Ordering is canonical via a per-node
// (selfID, selfSeq) key drawn from the same ID space as link deliveries.
func (tb *Testbed) ScheduleNode(at time.Time, node string, call event.CallHandler, pl event.Payload) error {
	n, ok := tb.node(node)
	if !ok {
		return fmt.Errorf("testbed: unknown node %q", node)
	}
	key := uint64(n.selfID)<<32 | uint64(n.selfSeq)
	n.selfSeq++
	tb.sched.PostNode(at, key, call, pl)
	return nil
}

// Preallocate grows the scheduler's queue to hold the expected steady-state
// event count without reallocation on the hot path. Call before Run.
func (tb *Testbed) Preallocate(n int) { tb.sched.Preallocate(n) }

// receive models FIFO service at node i: the packet waits for the node to
// become idle, is handled, and its outputs leave when service completes. A
// packet's size is computed once per run of actions (a fan-out) sharing it.
func (tb *Testbed) receive(now time.Time, i int32, face ndn.FaceID, pkt *wire.Packet) {
	n := &tb.list[i]
	n.packetEvents++
	start := now
	if n.busyUntil.After(start) {
		if q := n.busyUntil.Sub(now); q > n.maxQueue {
			n.maxQueue = q
		}
		start = n.busyUntil
	}
	sink := &tb.scratch
	sink.Reset()
	n.handle(start, face, pkt, sink)
	actions := sink.Actions
	service := n.proc(pkt)
	if len(actions) > 1 {
		service += time.Duration(len(actions)-1) * n.perCopy
	}
	finish := start.Add(service)
	n.busyUntil = finish
	var sized *wire.Packet
	size := 0
	for _, a := range actions {
		l := tb.link(n, a.Face)
		if l == nil {
			continue
		}
		if a.Packet != sized {
			sized, size = a.Packet, wire.Size(a.Packet)
		}
		tb.transmit(n, l, finish, a.Packet, size)
	}
	sink.Reset()
}

// Emit sends packets from a node outside the service path (used by client
// timers: publishing an update costs HostProc at the host).
func (tb *Testbed) Emit(now time.Time, node string, actions []ndn.Action) {
	n, ok := tb.node(node)
	if !ok {
		return
	}
	for _, a := range actions {
		if l := tb.link(n, a.Face); l != nil {
			tb.transmit(n, l, now, a.Packet, wire.Size(a.Packet))
		}
	}
}

// emitSink transmits actions straight onto the sending node's links as they
// are emitted — the sink-shaped counterpart of Emit's slice walk.
type emitSink struct {
	tb  *Testbed
	n   *nodeState
	now time.Time
}

// Emit implements ndn.ActionSink.
func (s *emitSink) Emit(a ndn.Action) {
	if l := s.tb.link(s.n, a.Face); l != nil {
		s.tb.transmit(s.n, l, s.now, a.Packet, wire.Size(a.Packet))
	}
}

// EmitTo invokes fn with a sink that transmits from node at now. It is the
// push-based counterpart of Emit for timer-driven sources — Router.TickTo
// retransmissions above all.
func (tb *Testbed) EmitTo(now time.Time, node string, fn func(ndn.ActionSink)) {
	n, ok := tb.node(node)
	if !ok {
		return
	}
	s := emitSink{tb: tb, n: n, now: now}
	fn(&s)
}

// Run executes the events due up to the deadline and leaves the clock
// there; maxEvents bounds runaway loops (0 = default of 100M): Run fails
// when an event is still due after maxEvents have run, having run it.
func (tb *Testbed) Run(deadline time.Time, maxEvents uint64) error {
	if maxEvents == 0 {
		maxEvents = 100_000_000
	}
	for n := uint64(0); tb.sched.StepUntil(deadline); n++ {
		if n == maxEvents {
			return fmt.Errorf("testbed: event budget exhausted (%d)", maxEvents)
		}
	}
	tb.sched.RunUntil(deadline) // nothing is due any more: moves the clock
	return nil
}

// Stats returns aggregate counters.
func (tb *Testbed) Stats() (packetEvents uint64, bytes float64) {
	for i := range tb.list {
		n := &tb.list[i]
		packetEvents += n.packetEvents
		bytes += n.bytes
	}
	return packetEvents, bytes
}
