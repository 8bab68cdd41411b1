package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// traceNet builds publisher→R1→R2(RP)→subscribers with a shared tracer:
// the full encapsulate → rp-deliver → fan-out path.
func traceNet(t *testing.T, tr *trace.Tracer) *harness {
	t.Helper()
	h := newHarness(t)
	h.addRouter("R1", WithTracer(tr))
	h.addRouter("R2", WithTracer(tr))
	h.connect("R1", 1, "R2", 1)
	h.attach("pub", "R1", 10)
	h.attach("subA", "R1", 11)
	h.attach("subB", "R2", 20)
	actions, err := becomeRP(h.routers["R2"], copss.RPInfo{
		Name: "/rp1", Prefixes: []cd.CD{cd.MustParse("/1")}, Seq: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.enqueueActions("R2", actions)
	h.run()
	h.fromClient("subA", sub("/1"))
	h.fromClient("subB", sub("/1"))
	h.run()
	return h
}

// TestTraceEndToEnd follows one sampled publication across the chain: the
// first hop stamps the deterministic trace ID, the encapsulation carries it
// to the RP, and every hop record in every router ring shares it.
func TestTraceEndToEnd(t *testing.T) {
	tr := trace.NewTracer(1, 42, 64) // trace everything
	h := traceNet(t, tr)
	h.fromClient("pub", mcast("/1/2", "p1", 7, "move"))
	h.run()

	want := tr.SampleID("p1", 7)
	if want == 0 {
		t.Fatal("every=1 did not sample the publication")
	}
	// Both subscribers received the publication with the trace context intact.
	for _, c := range []string{"subA", "subB"} {
		var got *wire.Packet
		for _, p := range h.clients[c].received {
			if p.Type == wire.TypeMulticast && p.Origin == "p1" {
				got = p
			}
		}
		if got == nil {
			t.Fatalf("%s did not receive the publication", c)
		}
		if got.TraceID != want {
			t.Errorf("%s: delivered TraceID = %#x, want %#x", c, got.TraceID, want)
		}
	}

	// R1 (first hop) recorded the encapsulation; R2 (RP) the delivery and
	// fan-outs; R1 a fan-out for subA when the multicast came back down.
	events := func(name string) map[trace.HopEvent]int {
		out := make(map[trace.HopEvent]int)
		for _, hop := range tr.Ring(name).Snapshot() {
			if hop.TraceID != want {
				t.Errorf("%s: hop with foreign trace ID %#x", name, hop.TraceID)
			}
			// The outer Interest carries the TraceID but not the inner Seq.
			if hop.Event != trace.HopInterest && hop.Seq != 7 {
				t.Errorf("%s: hop Seq = %d, want 7", name, hop.Seq)
			}
			out[hop.Event]++
		}
		return out
	}
	r1 := events("R1")
	if r1[trace.HopEncapsulate] != 1 {
		t.Errorf("R1 encapsulate hops = %d, want 1 (events: %v)", r1[trace.HopEncapsulate], r1)
	}
	if r1[trace.HopFanOut] != 1 {
		t.Errorf("R1 fan-out hops = %d, want 1 for subA (events: %v)", r1[trace.HopFanOut], r1)
	}
	r2 := events("R2")
	if r2[trace.HopRPDeliver] != 1 {
		t.Errorf("R2 rp-deliver hops = %d, want 1 (events: %v)", r2[trace.HopRPDeliver], r2)
	}
	// R2 fans out to subB and back toward R1.
	if r2[trace.HopFanOut] != 2 {
		t.Errorf("R2 fan-out hops = %d, want 2 (events: %v)", r2[trace.HopFanOut], r2)
	}
}

// TestTraceExportHopOrder traces one publication across encapsulate → RP
// deliver → fan-out → downstream fan-out, advancing the clock one
// millisecond per delivered packet, and exports it with the Chrome exporter:
// the "hop" args of the trace's instants must count 0, 1, 2, … in time
// order, with equal-time records in ring-position order.
func TestTraceExportHopOrder(t *testing.T) {
	tr := trace.NewTracer(1, 42, 64)
	h := traceNet(t, tr)
	h.fromClient("pub", mcast("/1/2", "p1", 9, "move"))
	for h.step() {
		h.now = h.now.Add(time.Millisecond)
	}
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Args struct {
				Hop int `json:"hop"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// Pids are 1 for R1 and 2 for R2 (rings sorted by router name). The
	// client's Multicast arrives at R1 before sampling stamps it, so the
	// first traced step is the encapsulation.
	want := []string{
		"encapsulate@1", // R1, first hop
		"interest@2",    // R2, one link later
		"rp-deliver@2",  // R2, same instant: ring position breaks the tie
		"fan-out@2",     // R2 → subB
		"fan-out@2",     // R2 → R1
		"multicast@1",   // R1, one link later again
		"fan-out@1",     // R1 → subA
	}
	got := make([]string, len(want))
	ts := make([]float64, len(want))
	n := 0
	for _, ev := range f.TraceEvents {
		if ev.Ph != "i" {
			continue
		}
		n++
		if hop := ev.Args.Hop; hop >= 0 && hop < len(want) && got[hop] == "" {
			got[hop] = fmt.Sprintf("%s@%d", ev.Name, ev.Pid)
			ts[hop] = ev.Ts
		}
	}
	if n != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d hop instants, by hop label %q, want %q", n, got, want)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			t.Errorf("hop %d at %v µs precedes hop %d at %v µs", i, ts[i], i-1, ts[i-1])
		}
	}
}

// TestTraceDeterministicAcrossReplays: two identical runs produce identical
// ring contents — the tracing analogue of the seeded-replay contract.
func TestTraceDeterministicAcrossReplays(t *testing.T) {
	run := func() [][]trace.Hop {
		tr := trace.NewTracer(3, 42, 64) // sample 1-in-3
		h := traceNet(t, tr)
		for i := uint64(1); i <= 20; i++ {
			h.fromClient("pub", mcast("/1/2", "p1", i, "m"))
		}
		h.run()
		var out [][]trace.Hop
		for _, r := range tr.Rings() {
			out = append(out, r.Snapshot())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("ring counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("ring %d: %d vs %d hops across replays", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("ring %d hop %d differs: %+v vs %+v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestTraceDisabledInvisible: a tracer with sampling off (every=0) must
// leave the wire untouched — every delivered packet untraced — while each
// ring keeps every step, untraced, and the Chrome export shows no packet.
func TestTraceDisabledInvisible(t *testing.T) {
	tr := trace.NewTracer(0, 42, 64)
	h := traceNet(t, tr)
	h.fromClient("pub", mcast("/1/2", "p1", 7, "move"))
	h.run()
	for _, c := range []string{"subA", "subB"} {
		for _, p := range h.clients[c].received {
			if p.TraceID != 0 {
				t.Errorf("%s: TraceID = %#x with sampling disabled", c, p.TraceID)
			}
		}
	}
	for name, want := range map[string][]trace.HopEvent{
		"R1": {trace.HopSubscribe, trace.HopEncapsulate, trace.HopFanOut},
		"R2": {trace.HopSubscribe, trace.HopRPDeliver, trace.HopFanOut},
	} {
		seen := make(map[trace.HopEvent]bool)
		for _, hop := range tr.Ring(name).Snapshot() {
			if hop.TraceID != 0 {
				t.Errorf("%s: %s record with TraceID %#x while sampling is off", name, hop.Event, hop.TraceID)
			}
			seen[hop.Event] = true
		}
		for _, ev := range want {
			if !seen[ev] {
				t.Errorf("%s: ring holds no %s record", name, ev)
			}
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"ph":"X"`)) {
		t.Errorf("export with sampling off holds a packet span:\n%s", buf.Bytes())
	}
}

// TestTraceARQDuplicateDrop: a traced reliable control packet delivered
// twice is acked and suppressed the second time, and the ring records that
// drop under the packet's TraceID and the reason.
func TestTraceARQDuplicateDrop(t *testing.T) {
	tr := trace.NewTracer(1, 0, 64)
	r := NewRouter("R1", WithTracer(tr))
	r.AddFace(1, FaceRouter)
	const id = 0xfeed
	pkt := &wire.Packet{Type: wire.TypeFIBAdd, Name: "/snap", Seq: 1, CtlSeq: 5, TraceID: id}
	handle(r, time.Unix(0, 0), 1, pkt)
	handle(r, time.Unix(1, 0), 1, pkt)
	if got := r.Stats().CtlDupsIn; got != 1 {
		t.Fatalf("CtlDupsIn = %d, want 1", got)
	}
	for _, hop := range tr.Ring("R1").Snapshot() {
		if hop.Event == trace.HopDrop && hop.TraceID == id && hop.Note == "arq duplicate" {
			return
		}
	}
	t.Errorf("no drop record for the duplicate; ring: %+v", tr.Ring("R1").Snapshot())
}

// TestTraceARQRetransmit: reliable control packets are sampled at their
// CtlSeq stamp, and every ARQ resend appends a retransmit hop with the same
// trace context (the satellite requirement: survival across retransmits).
func TestTraceARQRetransmit(t *testing.T) {
	tr := trace.NewTracer(1, 0, 64)
	h := arqPair(t, WithTracer(tr))
	r1 := h.routers["R1"]
	h.queue = nil // lose the announcement

	want := tr.SampleID("R1", 1) // first stamped CtlSeq on R1
	if want == 0 {
		t.Fatal("every=1 did not sample the control packet")
	}
	t0 := time.Unix(0, 0)
	out := tickActions(r1, t0.Add(DefaultARQRTO+time.Millisecond))
	if len(out) != 1 {
		t.Fatalf("retransmissions = %d, want 1", len(out))
	}
	if got := out[0].Packet.TraceID; got != want {
		t.Errorf("retransmitted TraceID = %#x, want %#x", got, want)
	}
	found := false
	for _, hop := range tr.Ring("R1").Snapshot() {
		if hop.Event == trace.HopRetransmit && hop.TraceID == want {
			found = true
		}
	}
	if !found {
		t.Error("no retransmit hop recorded for the traced control packet")
	}
}

// TestTracerAttachedDisabledAllocBudget is the acceptance gate: a router
// with the tracer compiled in but sampling disabled must match the
// tracer-less multicast fast path allocation for allocation.
func TestTracerAttachedDisabledAllocBudget(t *testing.T) {
	budget := func(opts ...Option) float64 {
		r := NewRouter("R", opts...)
		r.AddFace(1000, FaceRouter)
		for i := 0; i < 8; i++ {
			f := ndn.FaceID(i + 1)
			r.AddFace(f, FaceClient)
			handle(r, time.Unix(0, 0), f, sub("/1"))
		}
		pkt := fanOutMulticast()
		now := time.Unix(1, 0)
		var sink ndn.SliceSink
		r.HandlePacketTo(now, 1000, pkt, &sink)
		return testing.AllocsPerRun(200, func() {
			sink.Reset()
			r.HandlePacketTo(now, 1000, pkt, &sink)
		})
	}
	plain := budget()
	disabled := budget(WithTracer(trace.NewTracer(0, 42, 256)))
	if disabled != plain {
		t.Errorf("tracer-attached-but-disabled fast path costs %v allocs/op, tracer-less costs %v — must be equal", disabled, plain)
	}
}
