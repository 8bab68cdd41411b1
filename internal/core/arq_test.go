package core

import (
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// arqPair builds two directly linked routers with R1 hosting /rp1.
func arqPair(t *testing.T, opts ...Option) *harness {
	t.Helper()
	h := newHarness(t)
	h.addRouter("R1", opts...)
	h.addRouter("R2", opts...)
	h.connect("R1", 1, "R2", 1)
	actions, err := becomeRPAt(h.routers["R1"], time.Unix(0, 0), copss.RPInfo{
		Name:     "/rp1",
		Prefixes: []cd.CD{cd.MustParse("/1")},
		Seq:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.enqueueActions("R1", actions)
	return h
}

func TestARQAckClearsPending(t *testing.T) {
	h := arqPair(t)
	r1 := h.routers["R1"]
	if got := r1.ARQPending(); got != 1 {
		t.Fatalf("after BecomeRPAt: pending = %d, want 1 (the announcement)", got)
	}
	h.run() // deliver the announcement; R2 acks; the ack clears the entry
	if got := r1.ARQPending(); got != 0 {
		t.Fatalf("after ack: pending = %d, want 0", got)
	}
	if r1.Stats().AcksIn != 1 {
		t.Fatalf("AcksIn = %d, want 1", r1.Stats().AcksIn)
	}
}

func TestARQRetransmitWithBackoffUntilAck(t *testing.T) {
	h := arqPair(t)
	r1 := h.routers["R1"]
	h.queue = nil // the announcement is "lost": never delivered to R2

	t0 := time.Unix(0, 0)
	// Before the RTO expires nothing is resent.
	if out := tickActions(r1, t0.Add(DefaultARQRTO/2)); len(out) != 0 {
		t.Fatalf("premature retransmission: %v", out)
	}
	// After the RTO the packet is resent; backoff doubles each attempt.
	out := tickActions(r1, t0.Add(DefaultARQRTO+time.Millisecond))
	if len(out) != 1 || out[0].Packet.Type != wire.TypeFIBAdd {
		t.Fatalf("first retransmission = %v, want the FIBAdd", out)
	}
	if r1.Stats().Retransmissions != 1 {
		t.Fatalf("Retransmissions = %d, want 1", r1.Stats().Retransmissions)
	}
	// Immediately after, the doubled backoff suppresses another resend.
	if out := tickActions(r1, t0.Add(DefaultARQRTO+2*time.Millisecond)); len(out) != 0 {
		t.Fatalf("backoff not applied: %v", out)
	}
	// Deliver the retransmission; the ack must clear the pending entry.
	h.enqueueActions("R1", out)
	h.enqueueActions("R1", tickActions(r1, t0.Add(time.Hour))) // expired again: resend
	h.run()
	if got := r1.ARQPending(); got != 0 {
		t.Fatalf("pending after acked retransmission = %d, want 0", got)
	}
}

func TestARQGivesUpAfterMaxAttempts(t *testing.T) {
	h := arqPair(t, WithFlowControl(
		flowctl.WithInitialRTO(10*time.Millisecond),
		flowctl.WithMaxAttempts(3),
	))
	r1 := h.routers["R1"]
	h.queue = nil // lose the announcement forever

	now := time.Unix(0, 0)
	resent := 0
	for i := 0; i < 10; i++ {
		now = now.Add(time.Hour) // always past any backoff
		resent += len(tickActions(r1, now))
	}
	if resent != 3 {
		t.Fatalf("resent %d times, want 3 (maxAttempts)", resent)
	}
	if got := r1.ARQPending(); got != 0 {
		t.Fatalf("pending after give-up = %d, want 0", got)
	}
	if r1.Stats().RetransAbandoned != 1 {
		t.Fatalf("RetransAbandoned = %d, want 1", r1.Stats().RetransAbandoned)
	}
}

func TestARQAckFeedsEstimator(t *testing.T) {
	h := arqPair(t)
	r1 := h.routers["R1"]
	if got := r1.ARQSRTT(1); got != 0 {
		t.Fatalf("SRTT before any ack = %v, want 0", got)
	}
	h.run() // announcement delivered and acked: one RTT sample
	if got := r1.ARQSRTT(1); got <= 0 {
		t.Fatalf("SRTT after ack = %v, want > 0 (ack must feed the estimator)", got)
	}
	if got := r1.Obs().Histogram("arq_srtt_ms", nil).Count(); got != 1 {
		t.Fatalf("arq_srtt_ms observations = %d, want 1", got)
	}
}

func TestARQKarnNoSampleFromRetransmission(t *testing.T) {
	h := arqPair(t)
	r1 := h.routers["R1"]
	h.queue = nil // first transmission lost
	out := tickActions(r1, time.Unix(0, 0).Add(time.Hour))
	if len(out) != 1 {
		t.Fatalf("expected one retransmission, got %v", out)
	}
	h.enqueueActions("R1", out)
	h.run() // the retransmission is delivered and acked
	if r1.ARQPending() != 0 {
		t.Fatal("ack must clear the retransmitted entry")
	}
	// Karn's algorithm: the ack matched a retransmitted packet, so its
	// round trip is ambiguous and must not be sampled.
	if got := r1.ARQSRTT(1); got != 0 {
		t.Fatalf("retransmitted ack was RTT-sampled: SRTT = %v", got)
	}
}

func TestARQAdaptiveBackoffClampedToMaxRTO(t *testing.T) {
	h := arqPair(t, WithFlowControl(
		flowctl.WithInitialRTO(10*time.Millisecond),
		flowctl.WithRTOBounds(time.Millisecond, 40*time.Millisecond),
		flowctl.WithMaxAttempts(8),
	))
	r1 := h.routers["R1"]
	h.queue = nil // lose everything: the sender must keep probing
	now := time.Unix(0, 0).Add(11 * time.Millisecond)
	resent := 0
	for i := 0; i < 20; i++ {
		resent += len(tickActions(r1, now))
		now = now.Add(41 * time.Millisecond) // always past the MaxRTO clamp
	}
	// Unlike the legacy unclamped doubling (which would need hours of
	// virtual time for 8 attempts), the clamp keeps every retry within one
	// MaxRTO of the previous.
	if resent != 8 {
		t.Fatalf("resent %d times at MaxRTO cadence, want all 8 attempts", resent)
	}
	if r1.Stats().RetransAbandoned != 1 {
		t.Fatalf("RetransAbandoned = %d, want 1 after the budget", r1.Stats().RetransAbandoned)
	}
}

func TestARQStaticModeKeepsLegacySchedule(t *testing.T) {
	h := arqPair(t, WithFlowControl(flowctl.Static()))
	r1 := h.routers["R1"]
	h.queue = nil
	t0 := time.Unix(0, 0)
	// Static mode keeps the legacy defaults: 50ms base, 6 attempts,
	// unclamped doubling — resend at 50ms, then not before 50ms<<1 later.
	if out := tickActions(r1, t0.Add(DefaultARQRTO+time.Millisecond)); len(out) != 1 {
		t.Fatalf("first static retransmission: %v", out)
	}
	if out := tickActions(r1, t0.Add(DefaultARQRTO+2*DefaultARQRTO)); len(out) != 0 {
		t.Fatalf("static backoff (rto<<1) not applied: %v", out)
	}
	resent := 1
	now := t0
	for i := 0; i < 10; i++ {
		now = now.Add(time.Hour)
		resent += len(tickActions(r1, now))
	}
	if resent != DefaultARQMaxAttempts {
		t.Fatalf("static resends = %d, want legacy budget %d", resent, DefaultARQMaxAttempts)
	}
}

func TestARQDuplicateSuppressedButAcked(t *testing.T) {
	h := arqPair(t)
	h.run()
	r2 := h.routers["R2"]
	join := &wire.Packet{
		Type: wire.TypeJoin, Name: "/rp1", Origin: "R9",
		CDs: []cd.CD{cd.MustParse("/1/2")}, CtlSeq: 77,
	}
	first := handle(r2, time.Unix(0, 0), 1, join)
	second := handle(r2, time.Unix(0, 0), 1, join)
	if r2.Stats().JoinsIn != 1 {
		t.Fatalf("JoinsIn = %d, want 1 (duplicate must not reprocess)", r2.Stats().JoinsIn)
	}
	if r2.Stats().CtlDupsIn != 1 {
		t.Fatalf("CtlDupsIn = %d, want 1", r2.Stats().CtlDupsIn)
	}
	// Both deliveries ack (the first ack may have been lost upstream).
	for i, actions := range [][]ndn.Action{first, second} {
		acked := false
		for _, a := range actions {
			if a.Face == 1 && a.Packet.Type == wire.TypeAck && a.Packet.CtlSeq == 77 {
				acked = true
			}
		}
		if !acked {
			t.Fatalf("delivery %d did not ack: %v", i, actions)
		}
	}
}

func TestARQLegacyZeroCtlSeqNeverAcked(t *testing.T) {
	h := arqPair(t)
	h.run()
	r2 := h.routers["R2"]
	join := &wire.Packet{Type: wire.TypeJoin, Name: "/rp1", CDs: []cd.CD{cd.MustParse("/1/2")}}
	for _, a := range handle(r2, time.Unix(0, 0), 1, join) {
		if a.Packet.Type == wire.TypeAck {
			t.Fatalf("legacy packet (CtlSeq=0) must not be acked: %v", a)
		}
	}
	// And reprocessing is NOT suppressed for legacy packets.
	handle(r2, time.Unix(0, 0), 1, join)
	if r2.Stats().JoinsIn != 2 {
		t.Fatalf("JoinsIn = %d, want 2", r2.Stats().JoinsIn)
	}
}

func TestARQRemoveFaceDropsState(t *testing.T) {
	h := arqPair(t)
	r1 := h.routers["R1"]
	h.queue = nil
	if r1.ARQPending() != 1 {
		t.Fatal("expected one pending entry")
	}
	r1.RemoveFace(1)
	if r1.ARQPending() != 0 {
		t.Fatal("RemoveFace must clear pending entries for the face")
	}
	if out := tickActions(r1, time.Unix(0, 0).Add(time.Hour)); len(out) != 0 {
		t.Fatalf("no retransmissions expected after face removal: %v", out)
	}
}

func TestARQStampsOnlyRouterFaces(t *testing.T) {
	h := newHarness(t)
	h.addRouter("R1")
	h.addRouter("R2")
	h.connect("R1", 1, "R2", 1)
	h.attach("c", "R1", 10)
	r1 := h.routers["R1"]
	actions, err := becomeRPAt(r1, time.Unix(0, 0), copss.RPInfo{
		Name: "/rp1", Prefixes: []cd.CD{cd.MustParse("/1")}, Seq: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range actions {
		if a.Face == 10 {
			t.Fatalf("announcement flooded to a client face: %v", a)
		}
		if a.Face == 1 && a.Packet.CtlSeq == 0 {
			t.Fatalf("router-face announcement not stamped: %v", a.Packet)
		}
	}
}

// TestTickToAllocFree pins TickTo's steady state: retransmitting due entries
// into a reused sink allocates nothing, since the entries are resent in
// place in the face table.
func TestTickToAllocFree(t *testing.T) {
	r := NewRouter("X", WithFlowControl(flowctl.WithMaxAttempts(1000)))
	r.AddFace(1, FaceRouter)
	r.AddFace(2, FaceRouter)
	now := time.Unix(0, 0)
	rs := &relSink{r: r, now: now, dst: discard}
	for _, f := range []ndn.FaceID{1, 2} {
		rs.Emit(ndn.Action{Face: f, Packet: &wire.Packet{Type: wire.TypeFIBAdd, Name: "/rp"}})
	}
	var sink ndn.SliceSink
	tick := func() {
		now = now.Add(time.Hour) // past any backed-off RTO: both entries are due
		sink.Reset()
		r.TickTo(now, &sink)
	}
	tick() // grow the sink
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("TickTo with 2 due entries: %v allocs/op, want 0", allocs)
	}
	if len(sink.Actions) != 2 || r.ARQPending() != 2 {
		t.Fatalf("last tick resent %d with %d pending, want 2 and 2", len(sink.Actions), r.ARQPending())
	}
}
