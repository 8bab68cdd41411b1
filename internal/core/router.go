// Package core implements the G-COPSS router: the composition of an NDN
// forwarding engine and a COPSS pub/sub engine described in Fig. 2 of the
// paper, plus the loss-free RP migration protocol of Section IV. The trigger
// that decides when an RP splits and which CDs move (sliding-window load per
// CD, the CD selection function) belongs to internal/sim, which runs it.
//
// A Router is pure with respect to I/O: every handler takes the current time
// and an arriving packet and emits the resulting (face, packet) send actions
// into an ndn.ActionSink. Hosts — the packet-level testbed, the TCP daemon,
// and the trace-driven simulator — own queues, links and clocks, which is
// also what makes the queueing behaviour measurable. Sinks are the only
// emission API: a caller that wants the actions as a slice owns an
// ndn.SliceSink and reads it back.
package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/obs/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// FaceKind distinguishes what is attached on the other end of a face. The
// paper's router treats packets from end hosts (players) differently from
// packets from other routers: a Multicast from an end host is encapsulated
// toward the covering RP, while a Multicast from a router is forwarded
// straight from the Subscription Table.
type FaceKind int

// Face kinds. Enum starts at 1 so the zero value is invalid.
const (
	// FaceRouter connects to another G-COPSS router.
	FaceRouter FaceKind = iota + 1
	// FaceClient connects to an end host (player or broker).
	FaceClient
)

// InternalFace is the virtual face (the dedicated IPC tunnel of Fig. 2)
// between the NDN engine and the G-COPSS engine of the same router. Actions
// never reference it; it only appears as a packet origin.
const InternalFace ndn.FaceID = -1

// Stats counts router activity. Values are assembled by Stats() from the
// router's registry-backed counters, so reading them is safe while another
// goroutine drives HandlePacketTo.
type Stats struct {
	MulticastIn         uint64 // raw Multicast packets received
	MulticastOut        uint64 // Multicast packets sent (per face)
	PublishEncapsulated uint64 // client publications encapsulated toward an RP
	RPDeliveries        uint64 // publications decapsulated and multicast as RP
	SubscribesIn        uint64
	UnsubscribesIn      uint64
	JoinsIn             uint64
	ConfirmsIn          uint64
	LeavesIn            uint64
	AnnouncementsIn     uint64
	Redirected          uint64 // stage-B publications re-encapsulated to a new RP
	Dropped             uint64
	Retransmissions     uint64 // ARQ resends of reliable control packets
	RetransAbandoned    uint64 // reliable packets given up on after max attempts
	AcksIn              uint64 // ARQ acks received
	CtlDupsIn           uint64 // duplicate reliable packets suppressed by dedup
}

// routerCounters holds the pre-resolved metric handles for the packet paths,
// so every count is one atomic add with no registry lookup.
type routerCounters struct {
	multicastIn         *obs.Counter
	multicastOut        *obs.Counter
	publishEncapsulated *obs.Counter
	rpDeliveries        *obs.Counter
	subscribesIn        *obs.Counter
	unsubscribesIn      *obs.Counter
	joinsIn             *obs.Counter
	confirmsIn          *obs.Counter
	leavesIn            *obs.Counter
	announcementsIn     *obs.Counter
	redirected          *obs.Counter
	dropped             *obs.Counter
	retransTotal        *obs.Counter
	retransAbandoned    *obs.Counter
	acksIn              *obs.Counter
	ctlDupsIn           *obs.Counter
}

// Router is one G-COPSS node.
type Router struct {
	name string

	ndnEngine *ndn.Engine
	st        *copss.ST
	rpt       *copss.RPTable

	faces map[ndn.FaceID]FaceKind

	// localRPs is the set of RP names hosted on this router.
	localRPs map[string]struct{}

	// propagated tracks, per RP name, the narrowed CDs for which this router
	// has already sent a Subscribe (or Join) upstream — the paper's
	// "aggregation of subscriptions at the subscription table".
	propagated map[string]*cd.Set

	// upstream is the confirmed upstream face per RP name.
	upstream map[string]ndn.FaceID

	// grafts tracks tree membership and in-flight make-before-break joins
	// per RP name.
	grafts map[string]*graft

	// pendingJoins parks Joins that arrive before the RP announcement.
	pendingJoins map[string][]pendingJoin

	// pendingPrunes holds branch Prunes queued at a handoff's old host,
	// emitted through the serialized RP path on the next publication so
	// they stay FIFO-behind every old-tree copy.
	pendingPrunes []ndn.Action

	// announceSeq remembers the highest announcement sequence seen per RP,
	// for flood deduplication.
	announceSeq map[string]uint64

	pubSeq uint64
	// nameBuf is publishToward's scratch for the encapsulation name.
	nameBuf []byte
	// cdScratch is withdrawIfUnneeded's scratch for the finer CDs it
	// re-propagates.
	cdScratch []cd.CD

	// dec decapsulates at the RP; its table holds the origins and CD keys
	// publishers keep sending.
	dec wire.Decoder

	// Control-plane ARQ state (see arq.go): sender-side pending
	// retransmissions keyed by (face, CtlSeq), the per-router stamp
	// counter, the per-face receiver dedup windows, and the per-face
	// adaptive RTT estimators governed by the flowctl config.
	arqSeq     uint64
	arqPending map[arqKey]*arqEntry
	arqSeen    map[ndn.FaceID]*arqSeen
	arqEst     map[ndn.FaceID]*flowctl.Estimator
	flow       flowctl.Config

	obsReg          *obs.Registry
	ctr             routerCounters
	deliveryLatency *obs.Histogram
	arqSRTT         *obs.Histogram
	arqRTO          *obs.Histogram

	// tracer samples publications for causal tracing; ring is this
	// router's packet-path recorder, bound once at construction so the hot
	// path never touches the tracer's registry map. Both nil without a
	// tracer.
	tracer *trace.Tracer
	ring   *trace.Ring

	// rel is the reusable ARQ-stamping sink HandlePacketTo threads through
	// dispatch; keeping it on the router avoids an allocation per packet.
	// Routers are single-threaded packet processors, so reuse is safe.
	rel relSink
}

// FlushOrigin marks the epoch-marker multicasts of the migration protocol:
// when the new RP processes a router's Join it multicasts a marker named
// after the joiner down the (old and new) trees. The joiner releases its
// old branch only after the marker arrives on the OLD upstream face — at
// which point, by per-link FIFO, every publication the old branch will ever
// carry for it has already been delivered. End hosts ignore these packets.
const FlushOrigin = "@copss-flush"

// flushMarkerName builds the marker content name for a joiner.
func flushMarkerName(joiner string) string { return FlushOrigin + "/" + joiner }

// graft is the per-RP tree-membership state used by the make-before-break
// migration protocol.
type graft struct {
	confirmed    bool                   // this router is on the RP's tree
	joinSent     bool                   // our own Join is in flight
	waiting      map[ndn.FaceID]*cd.Set // downstream joiners awaiting our Confirm
	oldRP        string                 // tree to leave once flushed ("" if none)
	oldFace      ndn.FaceID
	hasOld       bool
	pendingLeave *cd.Set // narrowed CDs to prune from the old tree
	markerSeen   bool    // our flush marker arrived on the old face
}

// pendingJoin parks a Join that raced ahead of its RP announcement.
type pendingJoin struct {
	from   ndn.FaceID
	cds    []cd.CD
	origin string
}

// Option configures a Router.
type Option func(*Router)

// WithNDNOptions forwards options to the embedded NDN engine.
func WithNDNOptions(opts ...ndn.Option) Option {
	return func(r *Router) { r.ndnEngine = ndn.NewEngine(opts...) }
}

// WithTracer attaches a shared packet-path recorder (internal/obs/trace):
// the router samples client publications at their first hop and records
// every packet-path step into its own ring, registered under the router's
// name; the tracer's sampling rate decides which records the ring keeps.
// Hosts share one tracer across all routers so a trace's records can be
// joined by TraceID. Without one, nothing is sampled or recorded.
func WithTracer(t *trace.Tracer) Option {
	return func(r *Router) { r.tracer = t }
}

// NewRouter creates a router with no faces.
func NewRouter(name string, opts ...Option) *Router {
	r := &Router{
		name:         name,
		ndnEngine:    ndn.NewEngine(),
		rpt:          copss.NewRPTable(),
		faces:        make(map[ndn.FaceID]FaceKind),
		localRPs:     make(map[string]struct{}),
		propagated:   make(map[string]*cd.Set),
		upstream:     make(map[string]ndn.FaceID),
		grafts:       make(map[string]*graft),
		pendingJoins: make(map[string][]pendingJoin),
		announceSeq:  make(map[string]uint64),
		arqPending:   make(map[arqKey]*arqEntry),
		arqSeen:      make(map[ndn.FaceID]*arqSeen),
		arqEst:       make(map[ndn.FaceID]*flowctl.Estimator),
		flow:         arqDefaults(flowctl.Config{}),
	}
	for _, o := range opts {
		o(r)
	}
	r.st = copss.NewST()
	if r.tracer != nil {
		r.ring = r.tracer.Ring(name)
	}
	r.obsReg = obs.NewRegistry()
	r.instrument()
	return r
}

// instrument resolves the router's metric handles against its registry,
// registers the table-size gauges, and folds the embedded NDN engine's
// telemetry into the same registry.
func (r *Router) instrument() {
	reg := r.obsReg
	r.ctr = routerCounters{
		multicastIn:         reg.Counter("multicast_in"),
		multicastOut:        reg.Counter("multicast_out"),
		publishEncapsulated: reg.Counter("publish_encapsulated"),
		rpDeliveries:        reg.Counter("rp_deliveries"),
		subscribesIn:        reg.Counter("subscribes_in"),
		unsubscribesIn:      reg.Counter("unsubscribes_in"),
		joinsIn:             reg.Counter("joins_in"),
		confirmsIn:          reg.Counter("confirms_in"),
		leavesIn:            reg.Counter("leaves_in"),
		announcementsIn:     reg.Counter("announcements_in"),
		redirected:          reg.Counter("redirected"),
		dropped:             reg.Counter("dropped"),
		retransTotal:        reg.Counter("retrans_total"),
		retransAbandoned:    reg.Counter("retrans_abandoned_total"),
		acksIn:              reg.Counter("arq_acks_in"),
		ctlDupsIn:           reg.Counter("arq_dups_in"),
	}
	r.deliveryLatency = reg.Histogram("delivery_latency_ms", obs.LatencyBucketsMs())
	r.arqSRTT = reg.Histogram("arq_srtt_ms", obs.LatencyBucketsMs())
	r.arqRTO = reg.Histogram("arq_rto_ms", obs.LatencyBucketsMs())
	reg.GaugeFunc("st_entries", func() float64 { return float64(r.st.Len()) })
	reg.GaugeFunc("rp_table_entries", func() float64 { return float64(r.rpt.Len()) })
	r.ndnEngine.Instrument(reg)
}

// Obs returns the registry the router records into.
func (r *Router) Obs() *obs.Registry { return r.obsReg }

// Tracer returns the attached tracer (nil when none is attached).
func (r *Router) Tracer() *trace.Tracer { return r.tracer }

// Name returns the router's name.
func (r *Router) Name() string { return r.name }

// NDN exposes the embedded NDN engine (FIB installation, content store).
func (r *Router) NDN() *ndn.Engine { return r.ndnEngine }

// ST exposes the subscription table for inspection.
func (r *Router) ST() *copss.ST { return r.st }

// RPTable exposes this router's view of the RP population.
func (r *Router) RPTable() *copss.RPTable { return r.rpt }

// Stats returns a copy of the router counters. Counter reads are atomic, so
// Stats is safe to call concurrently with packet handling.
func (r *Router) Stats() Stats {
	return Stats{
		MulticastIn:         r.ctr.multicastIn.Value(),
		MulticastOut:        r.ctr.multicastOut.Value(),
		PublishEncapsulated: r.ctr.publishEncapsulated.Value(),
		RPDeliveries:        r.ctr.rpDeliveries.Value(),
		SubscribesIn:        r.ctr.subscribesIn.Value(),
		UnsubscribesIn:      r.ctr.unsubscribesIn.Value(),
		JoinsIn:             r.ctr.joinsIn.Value(),
		ConfirmsIn:          r.ctr.confirmsIn.Value(),
		LeavesIn:            r.ctr.leavesIn.Value(),
		AnnouncementsIn:     r.ctr.announcementsIn.Value(),
		Redirected:          r.ctr.redirected.Value(),
		Dropped:             r.ctr.dropped.Value(),
		Retransmissions:     r.ctr.retransTotal.Value(),
		RetransAbandoned:    r.ctr.retransAbandoned.Value(),
		AcksIn:              r.ctr.acksIn.Value(),
		CtlDupsIn:           r.ctr.ctlDupsIn.Value(),
	}
}

// arrivalKind maps a wire packet type to its arrival record kind (0 when
// the type is unknown).
func arrivalKind(t wire.Type) trace.HopEvent {
	switch t {
	case wire.TypeInterest:
		return trace.HopInterest
	case wire.TypeData:
		return trace.HopData
	case wire.TypeSubscribe:
		return trace.HopSubscribe
	case wire.TypeUnsubscribe:
		return trace.HopUnsubscribe
	case wire.TypeMulticast:
		return trace.HopMulticast
	case wire.TypeFIBAdd:
		return trace.HopAnnounce
	case wire.TypeHandoff:
		return trace.HopHandoff
	case wire.TypeJoin:
		return trace.HopJoin
	case wire.TypeConfirm:
		return trace.HopConfirm
	case wire.TypeLeave:
		return trace.HopLeave
	case wire.TypePrune:
		return trace.HopPrune
	default:
		return 0
	}
}

// record appends one packet-path step to the router's ring; the ring
// decides whether to keep it. Without a tracer it is one nil check — this
// rides inside the multicast fast path, so it must stay alloc-free
// (TestTracerAttachedDisabledAllocBudget).
func (r *Router) record(now time.Time, kind trace.HopEvent, face ndn.FaceID, pkt *wire.Packet, note string) {
	if r.ring == nil {
		return
	}
	h := trace.Hop{
		TraceID: pkt.TraceID,
		At:      now.UnixNano(),
		Face:    int64(face),
		Seq:     pkt.Seq,
		Event:   kind,
		Name:    pkt.Name,
		Origin:  pkt.Origin,
		Note:    note,
	}
	if len(pkt.CDs) > 0 {
		h.CD = pkt.CDs[0].Key()
	}
	r.ring.Append(h)
}

// drop counts a discarded packet and records it with the reason.
func (r *Router) drop(now time.Time, from ndn.FaceID, pkt *wire.Packet, reason string) {
	r.ctr.dropped.Inc()
	r.record(now, trace.HopDrop, from, pkt, reason)
}

// AddFace registers a face of the given kind.
func (r *Router) AddFace(id ndn.FaceID, kind FaceKind) {
	r.faces[id] = kind
}

// RemoveFace drops a face and its subscriptions, along with any ARQ state
// bound to it. It sends nothing upstream and re-syncs nothing: FIB next hops,
// upstream and propagated entries through the face stay behind, and a peer
// that reconnects on a new face gets no subscription or route state resent.
func (r *Router) RemoveFace(id ndn.FaceID) {
	delete(r.faces, id)
	r.st.RemoveFace(id)
	delete(r.arqSeen, id)
	delete(r.arqEst, id)
	for k := range r.arqPending {
		if k.face == id {
			delete(r.arqPending, k)
		}
	}
}

// FaceKindOf returns the kind of a registered face.
func (r *Router) FaceKindOf(id ndn.FaceID) (FaceKind, bool) {
	k, ok := r.faces[id]
	return k, ok
}

// Faces returns the registered face IDs in unspecified order.
func (r *Router) Faces() []ndn.FaceID {
	out := make([]ndn.FaceID, 0, len(r.faces))
	for id := range r.faces {
		out = append(out, id)
	}
	return out
}

// IsRP reports whether this router hosts the named RP.
func (r *Router) IsRP(rpName string) bool {
	_, ok := r.localRPs[rpName]
	return ok
}

// LocalRPs returns the names of RPs hosted here.
func (r *Router) LocalRPs() []string {
	out := make([]string, 0, len(r.localRPs))
	for n := range r.localRPs {
		out = append(out, n)
	}
	return out
}

// InstallRP statically installs knowledge of an RP: its served prefixes and
// the face leading toward it (ndn FIB entry). Hosts use it to bootstrap the
// network; the dynamic path is Announce/HandleAnnouncement flooding.
func (r *Router) InstallRP(info copss.RPInfo, via ndn.FaceID) error {
	if err := r.rpt.Set(info.Name, info.Prefixes, info.Seq); err != nil {
		return fmt.Errorf("core: install RP: %w", err)
	}
	if seq := r.announceSeq[info.Name]; info.Seq > seq {
		r.announceSeq[info.Name] = info.Seq
	}
	r.ndnEngine.FIB().RemovePrefix(info.Name)
	r.ndnEngine.FIB().Add(info.Name, via)
	r.upstream[info.Name] = via
	r.confirmGraft(info.Name, discard) // statically bootstrapped routers are on-tree
	return nil
}

// BecomeRPTo makes this router host the named RP serving the given
// prefix-free CD prefixes, emitting the announcement flood to all router
// faces into sink. The flood is fire-and-forget; hosts that drive TickTo
// use BecomeRPAt.
func (r *Router) BecomeRPTo(info copss.RPInfo, sink ndn.ActionSink) error {
	if err := r.rpt.Set(info.Name, info.Prefixes, info.Seq); err != nil {
		return fmt.Errorf("core: become RP: %w", err)
	}
	if seq := r.announceSeq[info.Name]; info.Seq > seq {
		r.announceSeq[info.Name] = info.Seq
	}
	r.localRPs[info.Name] = struct{}{}
	r.ndnEngine.FIB().RemovePrefix(info.Name)
	r.ndnEngine.FIB().Add(info.Name, InternalFace)
	delete(r.upstream, info.Name)
	r.floodExcept(-1, &wire.Packet{
		Type:   wire.TypeFIBAdd,
		Name:   info.Name,
		CDs:    info.Prefixes,
		Seq:    info.Seq,
		Origin: r.name,
	}, sink)
	return nil
}

// BecomeRPAt is BecomeRPTo with ARQ registration stamped at now: the
// announcement flood emitted into sink is retransmitted by TickTo until every
// neighbor acks, so bootstrap survives lossy links.
func (r *Router) BecomeRPAt(now time.Time, info copss.RPInfo, sink ndn.ActionSink) error {
	return r.BecomeRPTo(info, &relSink{r: r, now: now, dst: sink})
}

// floodExcept emits send actions for every router face except the given one
// (use a negative face to flood everywhere). All actions share the one
// packet under the immutable-after-send discipline; per-face mutation (ARQ
// CtlSeq stamping) copies on write in the relSink. Actions are emitted in
// ascending face order: flood order feeds the transmit order hosts observe,
// and map-iteration order here would make same-seed replays diverge. It
// allocates nothing (TestFloodExceptAllocFree).
func (r *Router) floodExcept(except ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	// Flood fan-outs are a handful of faces; collect them on the stack and
	// insertion-sort (sort.Slice's closure would allocate on this path).
	var buf [16]ndn.FaceID
	out := buf[:0]
	for id, kind := range r.faces {
		if id == except || kind != FaceRouter {
			continue
		}
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for _, id := range out {
		sink.Emit(ndn.Action{Face: id, Packet: pkt})
	}
}

// HandlePacketTo is the router's single entry point: it dispatches by packet
// type exactly as the "is a NDN pkt?" demultiplexer of Fig. 2 does, emitting
// every send action into sink. Around the dispatch sits the control-plane
// ARQ (arq.go): acks are consumed, reliable arrivals are acked and
// deduplicated, and reliable departures to router faces are stamped and
// registered for retransmission by the relSink wrapper.
func (r *Router) HandlePacketTo(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	if kind := arrivalKind(pkt.Type); kind != 0 {
		r.record(now, kind, from, pkt, "")
	}
	if pkt.Type == wire.TypeAck {
		r.handleAck(now, from, pkt)
		return
	}
	if reliableType(pkt.Type) && pkt.CtlSeq != 0 {
		dup := r.arqReceive(from, pkt, sink)
		if dup {
			r.ctr.ctlDupsIn.Inc()
			r.record(now, trace.HopDrop, from, pkt, "arq duplicate")
			return
		}
	}
	rs := &r.rel
	rs.r, rs.now, rs.dst = r, now, sink
	r.dispatch(now, from, pkt, rs)
	rs.dst = nil
}

// dispatch is the Fig. 2 demultiplexer proper.
func (r *Router) dispatch(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	switch pkt.Type {
	case wire.TypeInterest:
		r.handleInterest(now, from, pkt, sink)
	case wire.TypeData:
		r.ndnEngine.HandleDataTo(now, from, pkt, sink)
	case wire.TypeSubscribe:
		r.handleSubscribe(now, from, pkt, sink)
	case wire.TypeUnsubscribe:
		r.handleUnsubscribe(now, from, pkt, sink)
	case wire.TypeMulticast:
		r.handleMulticast(now, from, pkt, sink)
	case wire.TypeFIBAdd:
		r.handleAnnouncement(now, from, pkt, sink)
	case wire.TypeHandoff:
		r.handleHandoffAnnouncement(now, from, pkt, sink)
	case wire.TypeJoin:
		r.handleJoin(now, from, pkt, sink)
	case wire.TypeConfirm:
		r.handleConfirm(now, from, pkt, sink)
	case wire.TypeLeave:
		r.handleLeave(now, from, pkt, sink)
	case wire.TypePrune:
		r.handlePrune(now, from, pkt, sink)
	default:
		r.drop(now, from, pkt, "unknown packet type")
	}
}

// handleInterest distinguishes RP-bound encapsulated publications from plain
// NDN Interests. RP-bound Interests are routed by FIB only (push semantics:
// they are never answered by Data, so PIT state would only rot); everything
// else goes through the full NDN engine.
func (r *Router) handleInterest(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	rpName, isRPBound := r.rpBoundName(pkt.Name)
	if !isRPBound {
		r.ndnEngine.HandleInterestTo(now, from, pkt, sink)
		return
	}
	if isTwoStepContentName(pkt.Name, rpName) {
		// A two-step content pull: full NDN semantics (PIT bread crumbs,
		// aggregation, caching) at every hop; the RP answers from its
		// Content Store via the FIB's internal face.
		r.ndnEngine.HandleInterestTo(now, from, pkt, sink)
		return
	}
	if r.IsRP(rpName) {
		inner, err := r.dec.Decapsulate(pkt)
		if err != nil {
			r.drop(now, from, pkt, "malformed encapsulation")
			return
		}
		r.deliverAsRP(now, rpName, inner, sink)
		return
	}
	faces, _, ok := r.ndnEngine.FIB().Lookup(rpName)
	if !ok {
		r.drop(now, from, pkt, "no route to RP")
		return
	}
	sink.Emit(ndn.Action{Face: faces[0], Packet: pkt})
}

// rpBoundName reports whether an Interest name targets a known RP, returning
// the RP name prefix.
func (r *Router) rpBoundName(name string) (string, bool) {
	// RP names are single components ("/rp1"); match the first component.
	if len(name) < 2 || name[0] != '/' {
		return "", false
	}
	end := strings.IndexByte(name[1:], '/')
	first := name
	if end >= 0 {
		first = name[:1+end]
	}
	if _, ok := r.rpt.Get(first); ok {
		return first, true
	}
	return "", false
}

// deliverAsRP multicasts a decapsulated publication down the subscription
// tree. Stage-B redirection: if the CD is no longer served here (it was
// handed off), the publication is re-encapsulated toward the now-covering RP.
func (r *Router) deliverAsRP(now time.Time, rpName string, inner *wire.Packet, sink ndn.ActionSink) {
	c, err := inner.CD()
	if err != nil {
		r.drop(now, InternalFace, inner, "publication without CD")
		return
	}
	info, _ := r.rpt.Get(rpName)
	// Any service through the RP path happens after every earlier emission,
	// so queued handoff Prunes can be flushed safely here. They go first so
	// they stay FIFO-behind every old-tree copy already on the wire.
	r.drainPendingPrunes(sink)
	if _, covered := cd.Cover(info.Prefixes, c); !covered {
		// The CD moved to another RP; redirect (half-RTT loss-freedom rule).
		newRP, _, ok := r.rpt.CoverOf(c)
		if !ok || newRP == rpName {
			r.drop(now, InternalFace, inner, "no RP covers CD")
			return
		}
		r.ctr.redirected.Inc()
		r.record(now, trace.HopRedirect, InternalFace, inner, newRP)
		r.publishToward(now, newRP, c, inner, new(wire.Packet), sink)
		return
	}
	if inner.Name == TwoStepRequest {
		r.deliverTwoStep(now, rpName, inner, sink)
		return
	}
	r.ctr.rpDeliveries.Inc()
	r.record(now, trace.HopRPDeliver, InternalFace, inner, rpName)
	r.distribute(now, -1, inner, sink) // -1: no arrival face to exclude
}

// drainPendingPrunes emits and clears the handoff Prunes queued at this
// (former) RP host.
func (r *Router) drainPendingPrunes(sink ndn.ActionSink) {
	if len(r.pendingPrunes) == 0 {
		return
	}
	prunes := r.pendingPrunes
	r.pendingPrunes = nil
	for _, a := range prunes {
		sink.Emit(a)
	}
}

// handleMulticast implements the paper's two Multicast cases: from an end
// host, encapsulate toward the covering RP; from another router, forward
// straight from the ST.
func (r *Router) handleMulticast(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	r.ctr.multicastIn.Inc()
	kind, ok := r.faces[from]
	if !ok {
		r.drop(now, from, pkt, "unregistered face")
		return
	}
	if kind == FaceRouter && pkt.Origin == FlushOrigin {
		// A migration flush marker: if it is ours and arrived on the old
		// upstream face, the old branch has drained — the deferred Leave of
		// make-before-break can finally be sent. Either way the marker
		// continues down the tree for joiners below us.
		r.flushLeaves(now, from, pkt, sink)
		r.distribute(now, from, pkt, sink)
		return
	}
	if kind == FaceClient {
		c, err := pkt.CD()
		if err != nil {
			r.drop(now, from, pkt, "publication without CD")
			return
		}
		rpName, _, found := r.rpt.CoverOf(c)
		if !found {
			r.drop(now, from, pkt, "no RP covers CD")
			return
		}
		// The first hop is where the causal tracer samples publications.
		// A new TraceID goes on a copy-on-write shallow copy, since the
		// arrival packet may be aliased by the sender. The paper's first hop
		// also stamps the CD's Bloom prefix hashes here (Section III-C); the
		// exact ST reads none, so this one does not.
		tid := pkt.TraceID
		if tid == 0 {
			tid = r.tracer.SampleID(pkt.Origin, pkt.Seq)
		}
		if r.IsRP(rpName) {
			// Publisher attached directly to the RP: skip encapsulation.
			// Delivery matches the encapsulated path (all matching faces,
			// including the publisher's own if subscribed).
			if tid != pkt.TraceID {
				cp := *pkt
				cp.TraceID = tid
				pkt = &cp
			}
			r.drainPendingPrunes(sink)
			if pkt.Name == TwoStepRequest {
				r.deliverTwoStep(now, rpName, pkt, sink)
				return
			}
			r.ctr.rpDeliveries.Inc()
			r.record(now, trace.HopRPDeliver, InternalFace, pkt, rpName)
			r.distribute(now, -1, pkt, sink)
			return
		}
		// Toward a remote RP the TraceID-stamped copy and the outer Interest
		// are one allocation.
		rec := &encapsulation{inner: *pkt}
		rec.inner.TraceID = tid
		r.ctr.publishEncapsulated.Inc()
		r.publishToward(now, rpName, c, &rec.inner, &rec.outer, sink)
		return
	}
	r.distribute(now, from, pkt, sink)
}

// encapsulation is a first-hop publication's TraceID-stamped copy and the
// Interest that carries it toward the RP, allocated together.
type encapsulation struct{ inner, outer wire.Packet }

// publishToward encapsulates a Multicast of CD c into outer, an Interest
// addressed to the given RP, and forwards it along the FIB. The
// encapsulation name gets a unique (origin, seq) suffix so that distinct
// publications to the same CD are never aggregated by PIT-style state
// anywhere.
func (r *Router) publishToward(now time.Time, rpName string, c cd.CD, inner, outer *wire.Packet, sink ndn.ActionSink) {
	name := append(r.nameBuf[:0], rpName...)
	name = append(name, c.Key()...)
	name = append(name, '/')
	name = append(name, inner.Origin...)
	name = append(name, '/')
	name = strconv.AppendUint(name, r.pubSeq+1, 36)
	r.nameBuf = name[:0]
	if err := wire.Encapsulate(string(name), inner, outer); err != nil {
		r.drop(now, InternalFace, inner, "encapsulation failed")
		return
	}
	r.pubSeq++
	faces, _, ok := r.ndnEngine.FIB().Lookup(rpName)
	if !ok {
		r.drop(now, InternalFace, inner, "no route to RP")
		return
	}
	// The step is recorded against the inner publication (its Seq identifies
	// the trace span); the outer carries the same TraceID on the wire.
	r.record(now, trace.HopEncapsulate, faces[0], inner, rpName)
	sink.Emit(ndn.Action{Face: faces[0], Packet: outer})
}

// distribute forwards a Multicast to every face whose subscriptions match a
// prefix of the packet's CD, excluding the arrival face. With fanOut it must
// stay allocation-free (TestDistributeAllocBudget).
func (r *Router) distribute(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	c, err := pkt.CD()
	if err != nil {
		r.drop(now, from, pkt, "multicast without CD")
		return
	}
	faces := r.st.FacesFor(c)
	if len(faces) == 0 {
		return
	}
	r.fanOut(now, from, pkt, faces, sink)
}

// fanOut is the router's one multicast fan-out loop, shared by distribute
// and the HandleBurst fast path: it emits pkt itself to every face in faces
// except the arrival face. The fan-out copies nothing — every out-face shares
// the received packet (it is immutable-after-send), so an N-face fan-out
// allocates nothing (TestDistributeAllocBudget). Deliveries to client faces
// carrying a send timestamp feed the delivery-latency histogram; they all
// observe the same latency, so the fan-out records them, and its out-face
// count, once.
func (r *Router) fanOut(now time.Time, from ndn.FaceID, pkt *wire.Packet, faces []ndn.FaceID, sink ndn.ActionSink) {
	dt := now.UnixNano() - pkt.SentAt
	timed := pkt.SentAt != 0 && dt >= 0 && pkt.Origin != FlushOrigin
	var sent, clients uint64
	for _, f := range faces {
		if f == from {
			continue
		}
		sink.Emit(ndn.Action{Face: f, Packet: pkt})
		sent++
		r.record(now, trace.HopFanOut, f, pkt, "")
		if timed && r.faces[f] == FaceClient {
			clients++
		}
	}
	r.ctr.multicastOut.Add(sent)
	r.deliveryLatency.ObserveRepeat(float64(dt)/1e6, clients)
}

// handleSubscribe records subscriptions in the ST and propagates narrowed
// subscriptions toward every RP whose served prefixes intersect them.
//
// Narrowing: toward an RP serving prefix p, a subscription to c propagates
// as deeper(p, c) — the more specific of the two. Because the served prefix
// population is prefix-free, every narrowed CD belongs to exactly one RP,
// which is what makes per-RP tree maintenance (migration) unambiguous.
func (r *Router) handleSubscribe(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	r.ctr.subscribesIn.Inc()
	for _, c := range pkt.CDs {
		r.st.Add(from, c)
		r.propagateSubscription(from, c, sink)
	}
}

// propagateSubscription sends narrowed Subscribe packets upstream for c.
func (r *Router) propagateSubscription(from ndn.FaceID, c cd.CD, sink ndn.ActionSink) {
	for _, info := range r.rpt.RPs() {
		rpName := info.Name
		if !info.Serves(c) || r.IsRP(rpName) {
			continue // not c's RP, or the tree roots here
		}
		for _, p := range info.Prefixes {
			if !p.Intersects(c) {
				continue
			}
			d := deeper(p, c)
			prop := r.propagated[rpName]
			if prop != nil && prop.ContainsPrefixOf(d) {
				continue // aggregated: already subscribed at or above d
			}
			upFace, ok := r.upstreamFaceFor(rpName)
			if !ok || upFace == from {
				continue
			}
			if prop == nil {
				prop = cd.NewSet()
				r.propagated[rpName] = prop
			}
			prop.Add(d)
			sink.Emit(ndn.Action{Face: upFace, Packet: &wire.Packet{
				Type: wire.TypeSubscribe,
				CDs:  []cd.CD{d},
			}})
		}
	}
}

// handleUnsubscribe removes subscriptions and withdraws upstream state that
// no remaining subscriber needs.
func (r *Router) handleUnsubscribe(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	r.ctr.unsubscribesIn.Inc()
	for _, c := range pkt.CDs {
		if !r.st.Remove(from, c) {
			continue
		}
		if r.st.FacesFor(c) != nil {
			continue // c or a prefix of it is still subscribed: every narrowed CD is needed
		}
		for _, info := range r.rpt.RPs() {
			if !info.Serves(c) || r.IsRP(info.Name) {
				continue
			}
			for _, p := range info.Prefixes {
				if p.Intersects(c) {
					r.withdrawIfUnneeded(info.Name, deeper(p, c), sink)
				}
			}
		}
	}
}

// withdrawIfUnneeded sends an Unsubscribe for narrowed CD d toward rpName if
// no face still needs it, and re-propagates any finer subscriptions that the
// withdrawn one was covering. Only a subscribed CD strictly under d can
// narrow to a CD strictly under d once none intersects d, so only those are
// collected, in sorted order, rather than the whole table.
func (r *Router) withdrawIfUnneeded(rpName string, d cd.CD, sink ndn.ActionSink) {
	prop := r.propagated[rpName]
	if prop == nil || !prop.Contains(d) {
		return
	}
	if r.st.AnyIntersecting(d) {
		return
	}
	prop.Remove(d)
	upFace, ok := r.upstreamFaceFor(rpName)
	if !ok {
		return
	}
	sink.Emit(ndn.Action{Face: upFace, Packet: &wire.Packet{
		Type: wire.TypeUnsubscribe,
		CDs:  []cd.CD{d},
	}})
	// Finer subscriptions previously covered by d must be re-propagated.
	info, _ := r.rpt.Get(rpName)
	under := r.st.AppendUnder(r.cdScratch[:0], d)
	slices.SortFunc(under, cd.CD.Compare)
	under = slices.Compact(under)
	r.cdScratch = under[:0]
	for _, remaining := range under {
		for _, p := range info.Prefixes {
			if !p.Intersects(remaining) {
				continue
			}
			finer := deeper(p, remaining)
			if !finer.HasPrefix(d) || finer == d {
				continue
			}
			if prop.ContainsPrefixOf(finer) {
				continue
			}
			prop.Add(finer)
			sink.Emit(ndn.Action{Face: upFace, Packet: &wire.Packet{
				Type: wire.TypeSubscribe,
				CDs:  []cd.CD{finer},
			}})
		}
	}
}

// upstreamFaceFor returns the face leading toward an RP, preferring the
// confirmed upstream and falling back to the FIB.
func (r *Router) upstreamFaceFor(rpName string) (ndn.FaceID, bool) {
	if f, ok := r.upstream[rpName]; ok {
		return f, true
	}
	faces, _, ok := r.ndnEngine.FIB().Lookup(rpName)
	if !ok || len(faces) == 0 {
		return 0, false
	}
	return faces[0], true
}

// handleAnnouncement processes a flooded FIBAdd: an RP announcement (with
// served CDs) or a pure content-prefix announcement (name only, e.g. a
// snapshot broker making its namespace routable — the paper's "we use FIB
// add/remove packets to directly deal with maintaining the FIB"). Either
// way the route toward the origin is learned from the arrival face (first
// arrival approximates the shortest path) and the flood continues.
func (r *Router) handleAnnouncement(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
	r.ctr.announcementsIn.Inc()
	if pkt.Seq <= r.announceSeq[pkt.Name] {
		return // duplicate or stale flood
	}
	if len(pkt.CDs) == 0 {
		// Pure prefix announcement: FIB only, no RP state.
		r.announceSeq[pkt.Name] = pkt.Seq
		r.ndnEngine.FIB().RemovePrefix(pkt.Name)
		r.ndnEngine.FIB().Add(pkt.Name, from)
		r.floodExcept(from, pkt, sink)
		return
	}
	if err := r.rpt.Set(pkt.Name, pkt.CDs, pkt.Seq); err != nil {
		r.drop(now, from, pkt, "conflicting RP announcement")
		return
	}
	r.announceSeq[pkt.Name] = pkt.Seq
	r.ndnEngine.FIB().RemovePrefix(pkt.Name)
	r.ndnEngine.FIB().Add(pkt.Name, from)
	r.upstream[pkt.Name] = from
	r.drainPendingJoins(now, pkt.Name, sink)
	r.floodExcept(from, pkt, sink)
}

// deeper returns the more specific of two intersecting CDs.
func deeper(a, b cd.CD) cd.CD {
	if a.HasPrefix(b) {
		return a
	}
	return b
}
