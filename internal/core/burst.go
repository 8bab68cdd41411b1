package core

import (
	"time"

	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// Burst forwarding (DESIGN.md §15): a host that receives several packets at
// once — in production the TCP daemon, draining everything buffered on a
// face — hands the whole slice to HandleBurst instead of looping over
// HandlePacketTo. The router then
// amortizes the dominant per-packet costs across each maximal run of
// multicasts that share a CD: one Subscription Table lookup serves the run,
// while emission order stays exactly what per-packet processing would
// produce.

// HandleBurst processes pkts, which arrived back-to-back on one face at one
// time, strictly in slice order. Maximal consecutive runs of router-to-router
// Multicasts with equal CD take the grouped fast path: the ST is probed once
// for the run and every packet itself fans out to that face set, allocating
// nothing. Every other packet — control traffic, QR,
// client-face publications, flush markers — falls back to HandlePacketTo in place, so
// the emitted action stream is identical to calling HandlePacketTo on each
// packet in order. Packets in pkts are immutable-after-send (DESIGN.md §11):
// HandleBurst never writes through them, and neither may any other burst
// consumer — the sharedpkt analyzer checks []*wire.Packet parameters too.
// The fast path, with burstFastPath, must stay allocation-free;
// TestHandleBurstAllocBudget pins it.
func (r *Router) HandleBurst(now time.Time, from ndn.FaceID, pkts []*wire.Packet, sink ndn.ActionSink) {
	i := 0
	for i < len(pkts) {
		head := pkts[i]
		if !r.burstFastPath(from, head) {
			r.HandlePacketTo(now, from, head, sink)
			i++
			continue
		}
		j := i + 1
		for j < len(pkts) && r.burstFastPath(from, pkts[j]) && pkts[j].CDs[0] == head.CDs[0] {
			j++
		}
		// One ST probe serves the whole [i, j) run. The returned face slice
		// is ST scratch, valid until the next ST query — nothing in the run
		// loop below queries the ST, and the run ends before any fallback
		// packet (which could mutate subscriptions) is processed.
		faces := r.st.FacesFor(head.CDs[0])
		for ; i < j; i++ {
			pkt := pkts[i]
			r.record(now, trace.HopMulticast, from, pkt, "")
			r.ctr.multicastIn.Inc()
			r.fanOut(now, from, pkt, faces, sink)
		}
	}
}

// burstFastPath reports whether pkt qualifies for the grouped multicast fast
// path: a plain Multicast arriving from another router. Everything else —
// control, NDN, client-face publications (first-hop stamping mutates via
// COW), flush markers (migration bookkeeping) — goes through HandlePacketTo.
func (r *Router) burstFastPath(from ndn.FaceID, pkt *wire.Packet) bool {
	return pkt.Type == wire.TypeMulticast &&
		len(pkt.CDs) >= 1 &&
		pkt.Origin != FlushOrigin &&
		r.faces[from] == FaceRouter
}
