package ndn

import (
	"time"

	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Action is a forwarding decision produced by the engine: send Packet out of
// Face. The host owns all I/O.
type Action struct {
	Face   FaceID
	Packet *wire.Packet
}

// Stats counts engine activity, used by the microbenchmarks. Values are
// assembled from the engine's registry-backed counters by Stats().
type Stats struct {
	InterestsReceived   uint64
	InterestsForwarded  uint64
	InterestsAggregated uint64
	InterestsDropped    uint64
	DataReceived        uint64
	DataForwarded       uint64
	DataUnsolicited     uint64
	CacheHits           uint64
	FIBHits             uint64
	FIBMisses           uint64
	PITExpired          uint64
}

// counters holds the engine's pre-resolved metric handles so the packet
// paths record with single atomic operations.
type counters struct {
	interestsReceived   *obs.Counter
	interestsForwarded  *obs.Counter
	interestsAggregated *obs.Counter
	interestsDropped    *obs.Counter
	dataReceived        *obs.Counter
	dataForwarded       *obs.Counter
	dataUnsolicited     *obs.Counter
	cacheHits           *obs.Counter
	fibHits             *obs.Counter
	fibMisses           *obs.Counter
	pitExpired          *obs.Counter
}

// Engine is a pure NDN forwarding engine: FIB + PIT + Content Store. Methods
// are not safe for concurrent use; hosts serialize access (a router core is
// a single packet-processing loop, which is also what the queueing model of
// the evaluation assumes).
type Engine struct {
	fib   FIB
	pit   PIT
	store *ContentStore

	reg *obs.Registry
	ctr counters

	interestLifetime time.Duration
	faces            []FaceID // HandleDataTo's scratch for PIT.Consume
}

// Option configures an Engine.
type Option func(*Engine)

// WithContentStore sets cache capacity (entries) and freshness limit.
func WithContentStore(capacity int, maxAge time.Duration) Option {
	return func(e *Engine) { e.store = NewContentStore(capacity, maxAge) }
}

// WithInterestLifetime overrides the PIT entry lifetime.
func WithInterestLifetime(d time.Duration) Option {
	return func(e *Engine) { e.interestLifetime = d }
}

// NewEngine creates an engine with a 1024-entry content store by default.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		store:            NewContentStore(1024, 0),
		interestLifetime: DefaultInterestLifetime,
	}
	for _, o := range opts {
		o(e)
	}
	e.Instrument(obs.NewRegistry())
	return e
}

// Instrument re-binds the engine's metrics to reg: counters are resolved as
// fresh handles and the PIT/content-store size gauges are registered against
// this engine. Hosts that embed the engine (core.Router) call this to fold
// its telemetry into a shared registry. Counts accumulated in a previously
// bound registry are not carried over.
func (e *Engine) Instrument(reg *obs.Registry) {
	e.reg = reg
	e.ctr = counters{
		interestsReceived:   reg.Counter("ndn.interests_received"),
		interestsForwarded:  reg.Counter("ndn.interests_forwarded"),
		interestsAggregated: reg.Counter("ndn.interests_aggregated"),
		interestsDropped:    reg.Counter("ndn.interests_dropped"),
		dataReceived:        reg.Counter("ndn.data_received"),
		dataForwarded:       reg.Counter("ndn.data_forwarded"),
		dataUnsolicited:     reg.Counter("ndn.data_unsolicited"),
		cacheHits:           reg.Counter("ndn.cache_hits"),
		fibHits:             reg.Counter("ndn.fib_hits"),
		fibMisses:           reg.Counter("ndn.fib_misses"),
		pitExpired:          reg.Counter("ndn.pit_expired"),
	}
	reg.GaugeFunc("ndn.pit_entries", func() float64 { return float64(e.pit.Len()) })
	reg.GaugeFunc("ndn.cs_entries", func() float64 { return float64(e.store.Len()) })
}

// Obs returns the registry the engine currently records into.
func (e *Engine) Obs() *obs.Registry { return e.reg }

// FIB exposes the engine's FIB for route installation (FIBAdd/FIBRemove
// packets are translated to these calls by the G-COPSS layer).
func (e *Engine) FIB() *FIB { return &e.fib }

// Store exposes the content store.
func (e *Engine) Store() *ContentStore { return e.store }

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		InterestsReceived:   e.ctr.interestsReceived.Value(),
		InterestsForwarded:  e.ctr.interestsForwarded.Value(),
		InterestsAggregated: e.ctr.interestsAggregated.Value(),
		InterestsDropped:    e.ctr.interestsDropped.Value(),
		DataReceived:        e.ctr.dataReceived.Value(),
		DataForwarded:       e.ctr.dataForwarded.Value(),
		DataUnsolicited:     e.ctr.dataUnsolicited.Value(),
		CacheHits:           e.ctr.cacheHits.Value(),
		FIBHits:             e.ctr.fibHits.Value(),
		FIBMisses:           e.ctr.fibMisses.Value(),
		PITExpired:          e.ctr.pitExpired.Value(),
	}
}

// HandleInterestTo processes an Interest arriving on face from at time now,
// emitting forwarding decisions into sink.
//
//   - Content-store hit: return the Data to the requesting face.
//   - PIT aggregation: a pending Interest for the same name suppresses
//     forwarding.
//   - Otherwise: forward along the FIB's longest-prefix match, excluding the
//     arrival face.
func (e *Engine) HandleInterestTo(now time.Time, from FaceID, pkt *wire.Packet, sink ActionSink) {
	e.ctr.interestsReceived.Inc()
	if payload, ok := e.store.Get(pkt.Name, now); ok {
		e.ctr.cacheHits.Inc()
		data := &wire.Packet{Type: wire.TypeData, Name: pkt.Name, Payload: payload, SentAt: pkt.SentAt}
		sink.Emit(Action{Face: from, Packet: data})
		return
	}
	if !e.pit.Insert(pkt.Name, from, now, e.interestLifetime) {
		e.ctr.interestsAggregated.Inc()
		return
	}
	faces, _, ok := e.fib.Lookup(pkt.Name)
	if !ok {
		e.ctr.fibMisses.Inc()
		e.ctr.interestsDropped.Inc()
		return
	}
	e.ctr.fibHits.Inc()
	// Every out-face gets the received packet itself (packets are
	// immutable-after-send, DESIGN.md §11).
	sent := 0
	for _, f := range faces {
		if f == from {
			continue
		}
		sink.Emit(Action{Face: f, Packet: pkt})
		sent++
	}
	if sent == 0 {
		e.ctr.interestsDropped.Inc()
	} else {
		e.ctr.interestsForwarded.Inc()
	}
}

// HandleDataTo processes a Data packet: it caches the content and follows
// the PIT bread crumbs back toward all requesters. Unsolicited Data (no PIT
// entry) is dropped per NDN semantics.
func (e *Engine) HandleDataTo(now time.Time, from FaceID, pkt *wire.Packet, sink ActionSink) {
	e.ctr.dataReceived.Inc()
	e.faces = e.pit.Consume(e.faces[:0], pkt.Name, now)
	if len(e.faces) == 0 {
		e.ctr.dataUnsolicited.Inc()
		return
	}
	e.store.Put(pkt.Name, pkt.Payload, now)
	for _, f := range e.faces {
		if f == from {
			continue
		}
		sink.Emit(Action{Face: f, Packet: pkt})
		e.ctr.dataForwarded.Inc()
	}
}

// HandleTo dispatches an NDN packet by type into sink; non-NDN packets are
// ignored (the caller's COPSS layer owns them).
func (e *Engine) HandleTo(now time.Time, from FaceID, pkt *wire.Packet, sink ActionSink) {
	switch pkt.Type {
	case wire.TypeInterest:
		e.HandleInterestTo(now, from, pkt, sink)
	case wire.TypeData:
		e.HandleDataTo(now, from, pkt, sink)
	}
}

// Expire evicts timed-out PIT entries; hosts call it periodically.
func (e *Engine) Expire(now time.Time) int {
	n := e.pit.Expire(now)
	if n > 0 {
		e.ctr.pitExpired.Add(uint64(n))
	}
	return n
}

// PendingInterests returns the number of live PIT entries.
func (e *Engine) PendingInterests() int { return e.pit.Len() }
