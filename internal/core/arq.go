package core

import (
	"cmp"
	"slices"
	"time"

	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// The control-plane ARQ makes the migration protocol survive lossy links.
// The paper's loss-freedom argument assumes Join/Confirm/Prune/Handoff (and
// the announcement floods they ride on) eventually arrive; one dropped
// control packet would otherwise wedge a graft forever. Reliability is
// hop-by-hop: every reliable control packet sent to a router face is stamped
// with a per-router monotonic CtlSeq, the receiving router echoes a TypeAck
// on the arrival face and deduplicates reprocessing, and the sender
// retransmits unacknowledged packets from Router.TickTo.
//
// Retransmission timers are adaptive (internal/flowctl): each router face
// carries an RFC 6298 SRTT/RTTVAR estimator fed by ack round trips, so the
// RTO tracks the observed path instead of a compile-time constant, and
// backoff doubles under a MaxRTO clamp so a sender keeps probing a
// partitioned link at a bounded cadence rather than backing off into
// silence. Karn's algorithm applies: acks for retransmitted packets are
// never sampled, since they cannot be matched to a specific transmission.
// Hop-by-hop (rather than end-to-end) matters for the Handoff flood:
// duplicate-suppression via announceSeq means an origin-level re-flood would
// be absorbed by the first router that already saw it, so only per-hop
// retransmission can heal downstream loss.

// Legacy ARQ parameters, preserved as the Static-mode baseline tuning.
const (
	// DefaultARQRTO is the initial retransmission timeout (the fixed base
	// in flowctl Static mode, the pre-sample seed otherwise).
	DefaultARQRTO = 50 * time.Millisecond
	// DefaultARQMaxAttempts is the legacy retransmission budget; adaptive
	// configs default to flowctl.DefaultMaxAttempts instead (attempts are
	// cheap once the RTO tracks the path).
	DefaultARQMaxAttempts = 6
	// arqSeenCap bounds the per-face dedup window.
	arqSeenCap = 4096
)

// WithFlowControl tunes the control-plane ARQ through the unified flowctl
// surface: flowctl.WithInitialRTO seeds (or, with flowctl.Static, pins) the
// retransmission timeout, flowctl.WithRTOBounds clamps the adaptive
// estimate and its backoff, and flowctl.WithMaxAttempts bounds resends.
// With no options the ARQ is adaptive with the legacy 50ms initial timeout;
// flowctl.Static() alone reproduces the legacy fixed schedule exactly
// (50ms base, unclamped doubling, 6 attempts).
func WithFlowControl(opts ...flowctl.Option) Option {
	return func(r *Router) {
		var c flowctl.Config
		for _, o := range opts {
			o(&c)
		}
		r.flow = arqDefaults(c)
	}
}

// arqDefaults normalizes an ARQ flow config: the ARQ keeps its historical
// 50ms initial timeout, and Static mode keeps the legacy 6-attempt budget.
func arqDefaults(cfg flowctl.Config) flowctl.Config {
	if cfg.InitialRTO <= 0 {
		cfg.InitialRTO = DefaultARQRTO
	}
	if cfg.MaxAttempts <= 0 && cfg.Static {
		cfg.MaxAttempts = DefaultARQMaxAttempts
	}
	return cfg.Norm()
}

// faceARQ is one face's control-plane ARQ state: the receiver-side dedup
// window, the face's RTT estimator, and the sender-side entries pending
// retransmission. CtlSeq stamps only grow, so appending keeps pending in
// ascending CtlSeq order.
type faceARQ struct {
	seen    arqSeen
	est     flowctl.Estimator
	pending []arqEntry
}

// arqOf returns (lazily creating) a face's ARQ state.
func (r *Router) arqOf(f *face) *faceARQ {
	if f.arq == nil {
		f.arq = &faceARQ{est: *flowctl.NewEstimator(r.flow)}
	}
	return f.arq
}

// arqEntry is the sender-side retransmission state for one packet; the
// packet carries its CtlSeq.
type arqEntry struct {
	pkt      *wire.Packet
	attempts int
	nextAt   time.Time
	// sentAt is the original transmission time; retransmitted marks entries
	// whose acks must not be RTT-sampled (Karn's algorithm).
	sentAt        time.Time
	retransmitted bool
}

// arqSeen is the receiver-side dedup window for one face: a bounded set of
// CtlSeq values already processed, evicted FIFO.
type arqSeen struct {
	set   map[uint64]struct{}
	order []uint64
}

func (s *arqSeen) has(seq uint64) bool {
	_, ok := s.set[seq]
	return ok
}

func (s *arqSeen) add(seq uint64) {
	if s.set == nil {
		s.set = make(map[uint64]struct{})
	}
	s.set[seq] = struct{}{}
	s.order = append(s.order, seq)
	if len(s.order) > arqSeenCap {
		delete(s.set, s.order[0])
		s.order = s.order[1:]
	}
}

// reliableType reports whether a packet type gets hop-by-hop ARQ between
// routers: the migration control packets plus the announcement floods whose
// loss would leave routes permanently missing.
func reliableType(t wire.Type) bool {
	switch t {
	case wire.TypeJoin, wire.TypeConfirm, wire.TypeLeave, wire.TypeHandoff,
		wire.TypePrune, wire.TypeFIBAdd, wire.TypeFIBRemove:
		return true
	}
	return false
}

// relSink is the ARQ-stamping ActionSink: every reliable control packet
// bound for a router face is stamped with a fresh CtlSeq and registered for
// retransmission as it is emitted, then forwarded to the destination sink.
// Client-face and unknown-face actions pass through untouched (clients do
// not ack). Stamping replaces the action's packet with a copy-on-write
// shallow copy, because flood fan-outs share one packet across sibling
// actions and the CtlSeq must be unique per face. Stamps follow emission
// order, which keeps every face's pending list in CtlSeq order.
type relSink struct {
	r   *Router
	now time.Time
	dst ndn.ActionSink
}

// Emit implements ndn.ActionSink.
func (s *relSink) Emit(a ndn.Action) {
	r := s.r
	if !reliableType(a.Packet.Type) {
		s.dst.Emit(a)
		return
	}
	if i, ok := r.faceIndex(a.Face); ok && r.faces[i].kind == FaceRouter {
		r.arqSeq++
		cp := *a.Packet
		cp.CtlSeq = r.arqSeq
		// Control packets get their trace context here: the CtlSeq stamp is
		// their first hop, and (router name, CtlSeq) is the deterministic
		// sampling key — control packets carry no (Origin, Seq).
		if cp.TraceID == 0 {
			cp.TraceID = r.tracer.SampleID(r.name, r.arqSeq)
		}
		a.Packet = &cp
		q := r.arqOf(&r.faces[i])
		q.pending = append(q.pending, arqEntry{pkt: &cp, nextAt: s.now.Add(q.est.RTO()), sentAt: s.now})
		r.arqInFlight++
	}
	s.dst.Emit(a)
}

// arqReceive runs on every arriving reliable packet that carries a CtlSeq:
// it always acks on the arrival face (emitting into sink), and reports
// whether the packet is a retransmission this router already processed.
func (r *Router) arqReceive(f *face, pkt *wire.Packet, sink ndn.ActionSink) (dup bool) {
	seen := &r.arqOf(f).seen
	sink.Emit(ndn.Action{Face: f.id, Packet: &wire.Packet{Type: wire.TypeAck, CtlSeq: pkt.CtlSeq}})
	if seen.has(pkt.CtlSeq) {
		return true
	}
	seen.add(pkt.CtlSeq)
	return false
}

// handleAck clears the pending entry the ack covers and, for first
// transmissions (Karn), feeds the round trip into the face's estimator.
func (r *Router) handleAck(now time.Time, f *face, pkt *wire.Packet) {
	r.ctr.acksIn.Inc()
	q := f.arq
	if q == nil {
		return
	}
	i, ok := slices.BinarySearchFunc(q.pending, pkt.CtlSeq, func(e arqEntry, seq uint64) int {
		return cmp.Compare(e.pkt.CtlSeq, seq)
	})
	if !ok {
		return
	}
	e := q.pending[i]
	q.pending = slices.Delete(q.pending, i, i+1)
	r.arqInFlight--
	if e.retransmitted {
		return
	}
	est := &q.est
	est.Observe(now.Sub(e.sentAt))
	r.arqSRTT.Observe(float64(est.SRTT()) / float64(time.Millisecond))
	r.arqRTO.Observe(float64(est.RTO()) / float64(time.Millisecond))
}

// TickTo drives the retransmission timers: every pending reliable packet
// whose adaptive timeout expired is resent with doubled (MaxRTO-clamped)
// backoff, until the flowctl MaxAttempts budget is exhausted and the packet
// is abandoned. Hosts call it periodically — the testbed from a scheduled
// recurring event, the TCP daemon from its event-loop ticker. It walks the
// face table in ascending face order and each face's entries in CtlSeq
// order, so equal clocks produce equal retransmission orders (deterministic
// replays). It returns at once when nothing is pending and otherwise
// allocates nothing (TestTickToAllocFree).
func (r *Router) TickTo(now time.Time, sink ndn.ActionSink) {
	if r.arqInFlight == 0 {
		return
	}
	for _, f := range r.faces {
		q := f.arq
		if q == nil {
			continue
		}
		kept := q.pending[:0]
		for _, e := range q.pending {
			if !e.nextAt.After(now) {
				if e.attempts >= r.flow.MaxAttempts {
					r.arqInFlight--
					r.ctr.retransAbandoned.Inc()
					r.record(now, trace.HopDrop, f.id, e.pkt, "retransmission abandoned")
					continue
				}
				e.attempts++
				e.retransmitted = true
				e.nextAt = now.Add(q.est.BackoffRTO(e.attempts))
				r.ctr.retransTotal.Inc()
				r.record(now, trace.HopRetransmit, f.id, e.pkt, "")
				// The stored packet is immutable-after-send; the resend can share it.
				sink.Emit(ndn.Action{Face: f.id, Packet: e.pkt})
			}
			kept = append(kept, e)
		}
		clear(q.pending[len(kept):])
		q.pending = kept
	}
}

// ARQPending returns the number of unacknowledged reliable control packets,
// for tests and debug exposition.
func (r *Router) ARQPending() int { return r.arqInFlight }

// ARQSRTT returns the smoothed RTT estimate for a router face (zero before
// the first ack sample), for tests and debug exposition.
func (r *Router) ARQSRTT(face ndn.FaceID) time.Duration {
	if i, ok := r.faceIndex(face); ok && r.faces[i].arq != nil {
		return r.faces[i].arq.est.SRTT()
	}
	return 0
}
