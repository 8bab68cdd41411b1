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
// The testbed executes on event.ShardedScheduler: nodes are partitioned
// across worker shards (WithWorkers), packet deliveries run in conservative
// time windows whose per-shard ends come from the shard-to-shard latency
// matrix Run derives from the link delays (one shard: windows run to the next
// timer), and timers (Schedule/Every/Inject/Emit) run single-threaded between
// windows. Node event ordering is canonical — deliveries tie-break on
// (linkID, per-link sequence) — so every worker count executes the identical
// packet trace.
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
// tie-break key linkID<<32|seq — stable across worker counts because each
// directed link is transmitted on only by its sender node's shard.
type link struct {
	to      string
	toIdx   int32 // the receiving node's slot in Testbed.list
	toShard int
	face    ndn.FaceID
	delay   time.Duration
	id      uint32
	seq     uint32
}

// dest packs the link's far end — receiving node index and face — into the
// Payload.Int of a delivery event.
func (l *link) dest() int64 { return int64(l.toIdx)<<32 | int64(l.face) }

// maxFace bounds the face IDs Connect accepts: links sit in a slice indexed
// by face, and deliveries carry the face in 32 bits.
const maxFace = 1 << 16

// link returns the wire attached to face f, or nil when f is unwired or out
// of range.
func (n *nodeState) link(f ndn.FaceID) *link {
	if uint(f) >= uint(len(n.links)) {
		return nil
	}
	return n.links[f]
}

// nodeState is one single-threaded network element.
type nodeState struct {
	name    string
	idx     int32 // position in Testbed.list
	shard   int
	handle  Handler
	proc    ProcFunc
	perCopy time.Duration
	links   []*link // indexed by FaceID; nil where no wire is attached

	// selfID is the node's slot in the canonical-key ID space (shared with
	// directed link IDs); with selfSeq it forms the tie-break key for
	// ScheduleNode events, so node-local timers order deterministically
	// against deliveries at any worker count.
	selfID uint32

	// Below fields are touched only by the node's own shard during windows
	// and by the single-threaded global phase between them.
	selfSeq   uint32
	busyUntil time.Time

	// stats
	processed    uint64
	maxQueue     time.Duration // worst queueing delay observed
	packetEvents uint64
	bytes        float64 // integer-valued, so summation order cannot matter
}

// Option configures a Testbed at construction.
type Option func(*Testbed)

// WithWorkers partitions nodes across n worker shards; packet deliveries in
// disjoint shards execute concurrently. n <= 1 is one shard, which the
// scheduler's loop runs inline on the calling goroutine. Every worker count
// produces the identical packet trace.
func WithWorkers(n int) Option {
	return func(tb *Testbed) { tb.workers = n }
}

// Testbed wires nodes and runs the discrete-event loop.
type Testbed struct {
	sched   *event.ShardedScheduler
	workers int
	// list holds the nodes in AddNode order; a node's position is the dense
	// index delivery events carry, so the packet path never hashes a name.
	// nodes finds them by name for the set-up API only.
	list   []*nodeState
	nodes  map[string]*nodeState
	faults *faultnet.Injector

	nextLinkID uint32

	// deliver is the pre-bound receive callback for node events: binding the
	// method value once here means transmit schedules deliveries without
	// allocating a closure per packet.
	deliver event.CallHandler

	// scratch is the per-shard action sink handlers emit into; each shard
	// owns exactly one, so windows never share them.
	scratch []ndn.SliceSink
}

// New creates an empty testbed starting at virtual time zero.
func New(opts ...Option) *Testbed {
	tb := &Testbed{
		workers: 1,
		nodes:   make(map[string]*nodeState),
	}
	for _, o := range opts {
		o(tb)
	}
	if tb.workers < 1 {
		tb.workers = 1
	}
	tb.sched = event.NewSharded(time.Unix(0, 0), tb.workers)
	tb.scratch = make([]ndn.SliceSink, tb.workers)
	tb.deliver = func(now time.Time, pl event.Payload) {
		tb.receive(now, tb.list[pl.Int>>32], ndn.FaceID(uint32(pl.Int)), pl.Ptr.(*wire.Packet))
	}
	return tb
}

// Now returns the current virtual time.
func (tb *Testbed) Now() time.Time { return tb.sched.Now() }

// EnableProfiling turns on the scheduler's wall-clock profiler: per-window
// exec/barrier-wait attribution and (up to timelineCap records) the
// per-(window, shard) timeline. Call before Run.
func (tb *Testbed) EnableProfiling(timelineCap int) { tb.sched.EnableProfiling(timelineCap) }

// SchedProfile snapshots the scheduler profile, or nil when profiling is
// off. Call after Run.
func (tb *Testbed) SchedProfile() *event.SchedProfile { return tb.sched.Profile() }

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

// transmit puts one packet on the wire from node n's face-link l at time at,
// applying link faults. It is the single choke point shared by the service
// path (receive) and the timer path (Emit).
func (tb *Testbed) transmit(n *nodeState, l *link, at time.Time, pkt *wire.Packet) {
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
	n.bytes += float64(wire.Size(pkt))
	pl := event.Payload{Int: l.dest(), Ptr: pkt}
	for i := 0; i < copies; i++ {
		key := uint64(l.id)<<32 | uint64(l.seq)
		l.seq++
		tb.sched.PostNode(n.shard, l.toShard, at.Add(l.delay), key, tb.deliver, pl)
	}
}

// AddNode registers a node with its handler and processing-cost function.
// Nodes are assigned to worker shards round-robin in registration order; use
// AddNodeOn to place a node topology-aware (see topo.Partition).
func (tb *Testbed) AddNode(name string, handle Handler, proc ProcFunc, perCopy time.Duration) {
	tb.AddNodeOn(name, len(tb.list)%tb.workers, handle, proc, perCopy)
}

// AddNodeOn registers a node on an explicit worker shard. Hosts building on
// a topo.Graph pass topo.Partition assignments here so that most links stay
// shard-internal and the lookahead windows stay wide. Shards
// outside [0, workers) are clamped. Call before Connect: link routing
// captures the endpoint shards at wiring time.
func (tb *Testbed) AddNodeOn(name string, shard int, handle Handler, proc ProcFunc, perCopy time.Duration) {
	if shard < 0 {
		shard = 0
	}
	if shard >= tb.workers {
		shard = shard % tb.workers
	}
	tb.nextLinkID++
	n := &nodeState{
		name:    name,
		idx:     int32(len(tb.list)),
		shard:   shard,
		handle:  handle,
		proc:    proc,
		perCopy: perCopy,
		selfID:  tb.nextLinkID,
	}
	tb.nodes[name] = n
	tb.list = append(tb.list, n)
}

// Connect wires face fa of node a to face fb of node b with the given
// propagation delay (both directions). The delay must be positive: it is the
// lookahead the scheduler's windows are built from, and no finite window is
// safe against a zero-delay hop. Directed link IDs are assigned in call
// order, so topology construction order fixes the canonical delivery
// ordering for every worker count.
func (tb *Testbed) Connect(a string, fa ndn.FaceID, b string, fb ndn.FaceID, delay time.Duration) error {
	if delay <= 0 {
		return fmt.Errorf("testbed: link %s–%s needs a positive delay, got %v", a, b, delay)
	}
	na, ok := tb.nodes[a]
	if !ok {
		return fmt.Errorf("testbed: unknown node %q", a)
	}
	nb, ok := tb.nodes[b]
	if !ok {
		return fmt.Errorf("testbed: unknown node %q", b)
	}
	if err := na.faceFree(fa); err != nil {
		return err
	}
	if err := nb.faceFree(fb); err != nil {
		return err
	}
	tb.nextLinkID++
	na.attach(fa, &link{to: b, toIdx: nb.idx, toShard: nb.shard, face: fb, delay: delay, id: tb.nextLinkID})
	tb.nextLinkID++
	nb.attach(fb, &link{to: a, toIdx: na.idx, toShard: na.shard, face: fa, delay: delay, id: tb.nextLinkID})
	return nil
}

// faceFree reports why face f of n cannot take a new wire, if it cannot.
func (n *nodeState) faceFree(f ndn.FaceID) error {
	if f < 0 || f > maxFace {
		return fmt.Errorf("testbed: %s face %d outside [0, %d]", n.name, f, maxFace)
	}
	if n.link(f) != nil {
		return fmt.Errorf("testbed: %s face %d already wired", n.name, f)
	}
	return nil
}

// attach wires l to face f, growing the face-indexed slice as needed.
func (n *nodeState) attach(f ndn.FaceID, l *link) {
	for int(f) >= len(n.links) {
		n.links = append(n.links, nil)
	}
	n.links[f] = l
}

// Inject delivers a packet to a node's face at the given absolute time, as
// if it arrived from the wire.
func (tb *Testbed) Inject(at time.Time, node string, face ndn.FaceID, pkt *wire.Packet) {
	tb.sched.At(at, func(now time.Time) {
		if n, ok := tb.nodes[node]; ok {
			tb.receive(now, n, face, pkt)
		}
	})
}

// Schedule runs fn at the given absolute virtual time (for client timers).
// Like all global events, fn runs single-threaded between node windows; it
// must be scheduled before Run or from another global event, never from
// inside a node Handler.
func (tb *Testbed) Schedule(at time.Time, fn func(now time.Time)) {
	tb.sched.At(at, fn)
}

// ScheduleNode runs a pre-bound callback as a node event on the named
// node's shard — the shard-local alternative to Schedule for per-node
// timers (a publishing host's update chain, say). Unlike global events,
// ScheduleNode events execute inside windows, so thousands of node timers
// do not serialize the scheduler between windows; the cost is the node
// contract: call it only during setup or from an event of the same node,
// and touch only that node's state from the callback. Ordering is canonical
// via a per-node (selfID, selfSeq) key drawn from the same ID space as link
// deliveries.
func (tb *Testbed) ScheduleNode(at time.Time, node string, call event.CallHandler, pl event.Payload) error {
	n, ok := tb.nodes[node]
	if !ok {
		return fmt.Errorf("testbed: unknown node %q", node)
	}
	key := uint64(n.selfID)<<32 | uint64(n.selfSeq)
	n.selfSeq++
	tb.sched.PostNode(n.shard, n.shard, at, key, call, pl)
	return nil
}

// Preallocate grows the scheduler's per-shard queues to hold the expected
// steady-state event count without reallocation on the hot path. Call after
// topology construction, before Run.
func (tb *Testbed) Preallocate(perShard int) { tb.sched.Preallocate(perShard) }

// receive models FIFO service at a node: the packet waits for the node to
// become idle, is handled, and its outputs leave when service completes.
func (tb *Testbed) receive(now time.Time, n *nodeState, face ndn.FaceID, pkt *wire.Packet) {
	n.packetEvents++
	start := now
	if n.busyUntil.After(start) {
		if q := n.busyUntil.Sub(now); q > n.maxQueue {
			n.maxQueue = q
		}
		start = n.busyUntil
	}
	sink := &tb.scratch[n.shard]
	sink.Reset()
	n.handle(start, face, pkt, sink)
	actions := sink.Actions
	service := n.proc(pkt)
	if len(actions) > 1 {
		service += time.Duration(len(actions)-1) * n.perCopy
	}
	finish := start.Add(service)
	n.busyUntil = finish
	n.processed++
	for _, a := range actions {
		if l := n.link(a.Face); l != nil {
			tb.transmit(n, l, finish, a.Packet)
		}
	}
	sink.Reset()
}

// Emit sends packets from a node outside the service path (used by client
// timers: publishing an update costs HostProc at the host). Call it from
// global events, from before Run, or — the ScheduleNode publish-chain case —
// from a node event of the same node: transmit only touches the sending
// node's link state, which that node's shard owns during windows.
func (tb *Testbed) Emit(now time.Time, node string, actions []ndn.Action) {
	n, ok := tb.nodes[node]
	if !ok {
		return
	}
	for _, a := range actions {
		if l := n.link(a.Face); l != nil {
			tb.transmit(n, l, now, a.Packet)
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
	if l := s.n.link(a.Face); l != nil {
		s.tb.transmit(s.n, l, s.now, a.Packet)
	}
}

// EmitTo invokes fn with a sink that transmits from node at now. It is the
// push-based counterpart of Emit for timer-driven sources — Router.TickTo
// retransmissions above all — with the same calling rules as Emit (global
// events, pre-Run setup, or same-node events).
func (tb *Testbed) EmitTo(now time.Time, node string, fn func(ndn.ActionSink)) {
	n, ok := tb.nodes[node]
	if !ok {
		return
	}
	s := emitSink{tb: tb, n: n, now: now}
	fn(&s)
}

// latencyMatrix builds the shard-to-shard minimum single-hop latency matrix
// from the wired links: entry [sa][sb] is the smallest delay of any directed
// link from a shard-sa node to a shard-sb node (NoRoute when none exists).
// Link delay lower-bounds every event hop — service time and queueing only
// push deliveries later — and node-local ScheduleNode timers stay on their
// own shard, which the scheduler treats as free, so the matrix is a sound
// lookahead bound for the whole testbed.
func (tb *Testbed) latencyMatrix() [][]time.Duration {
	m := make([][]time.Duration, tb.workers)
	for i := range m {
		m[i] = make([]time.Duration, tb.workers)
		for j := range m[i] {
			m[i][j] = event.NoRoute
		}
	}
	for _, n := range tb.list {
		for _, l := range n.links {
			if l == nil {
				continue
			}
			if cur := m[n.shard][l.toShard]; cur == event.NoRoute || l.delay < cur {
				m[n.shard][l.toShard] = l.delay
			}
		}
	}
	return m
}

// Run drains the event loop up to the deadline; maxEvents bounds runaway
// loops (0 = default of 100M).
func (tb *Testbed) Run(deadline time.Time, maxEvents uint64) error {
	if maxEvents == 0 {
		maxEvents = 100_000_000
	}
	if err := tb.sched.SetLatencyMatrix(tb.latencyMatrix()); err != nil {
		return fmt.Errorf("testbed: building lookahead matrix: %w", err)
	}
	for tb.sched.Pending() > 0 {
		if tb.sched.Processed() > maxEvents {
			return fmt.Errorf("testbed: event budget exhausted (%d)", maxEvents)
		}
		next := tb.sched.Now()
		if next.After(deadline) {
			break
		}
		if n := tb.sched.RunUntil(deadline); n == 0 {
			break
		}
	}
	return nil
}

// Stats returns aggregate counters.
func (tb *Testbed) Stats() (packetEvents uint64, bytes float64) {
	for _, n := range tb.list {
		packetEvents += n.packetEvents
		bytes += n.bytes
	}
	return packetEvents, bytes
}
