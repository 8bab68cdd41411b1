package testbed

import (
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

func TestNodeFIFOQueueing(t *testing.T) {
	tb := New()
	var handled []time.Time
	tb.AddNode("n", func(now time.Time, _ ndn.FaceID, _ *wire.Packet, _ ndn.ActionSink) {
		handled = append(handled, now)
	}, func(*wire.Packet) time.Duration { return 10 * time.Millisecond }, 0)

	pkt := &wire.Packet{Type: wire.TypeInterest, Name: "/x"}
	t0 := tb.Now()
	// Three packets arrive back to back; service is 10ms each.
	tb.Inject(t0.Add(1*time.Millisecond), "n", 0, pkt)
	tb.Inject(t0.Add(2*time.Millisecond), "n", 0, pkt)
	tb.Inject(t0.Add(3*time.Millisecond), "n", 0, pkt)
	if err := tb.Run(t0.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if len(handled) != 3 {
		t.Fatalf("handled %d packets", len(handled))
	}
	// Service starts: 1ms, 11ms, 21ms.
	wantStarts := []time.Duration{1 * time.Millisecond, 11 * time.Millisecond, 21 * time.Millisecond}
	for i, w := range wantStarts {
		if got := handled[i].Sub(t0); got != w {
			t.Errorf("packet %d served at %v, want %v", i, got, w)
		}
	}
	// The third packet arrives at 3ms while the node is busy until 21ms.
	n, _ := tb.node("n")
	if maxQ := n.maxQueue; maxQ != 18*time.Millisecond {
		t.Errorf("maxQueue = %v, want 18ms", maxQ)
	}
	if processed := n.packetEvents; processed != 3 {
		t.Errorf("processed = %d", processed)
	}
}

func TestLinkDelayAndPerCopy(t *testing.T) {
	tb := New()
	var received []time.Time
	// a fans out two copies to b and c; per-copy surcharge 5ms.
	tb.AddNode("a", func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, out ndn.ActionSink) {
		out.Emit(ndn.Action{Face: 1, Packet: pkt})
		out.Emit(ndn.Action{Face: 2, Packet: pkt})
	}, func(*wire.Packet) time.Duration { return 10 * time.Millisecond }, 5*time.Millisecond)
	sink := func(now time.Time, _ ndn.FaceID, _ *wire.Packet, _ ndn.ActionSink) {
		received = append(received, now)
	}
	tb.AddNode("b", sink, func(*wire.Packet) time.Duration { return 0 }, 0)
	tb.AddNode("c", sink, func(*wire.Packet) time.Duration { return 0 }, 0)
	if err := tb.Connect("a", 1, "b", 0, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := tb.Connect("a", 2, "c", 0, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	t0 := tb.Now()
	tb.Inject(t0, "a", 0, &wire.Packet{Type: wire.TypeInterest, Name: "/x"})
	if err := tb.Run(t0.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	// Service = 10ms base + 1 extra copy × 5ms = 15ms; +3ms link = 18ms.
	if len(received) != 2 {
		t.Fatalf("received %d", len(received))
	}
	for _, at := range received {
		if got := at.Sub(t0); got != 18*time.Millisecond {
			t.Errorf("arrival at %v, want 18ms", got)
		}
	}
	if events, bytes := tb.Stats(); events != 3 || bytes <= 0 {
		t.Errorf("stats = %d events %f bytes", events, bytes)
	}
}

func TestConnectValidation(t *testing.T) {
	tb := New()
	tb.AddNode("a", nil, func(*wire.Packet) time.Duration { return 0 }, 0)
	tb.AddNode("b", nil, func(*wire.Packet) time.Duration { return 0 }, 0)
	if err := tb.Connect("a", 1, "zzz", 1, time.Millisecond); err == nil {
		t.Error("unknown node accepted")
	}
	if err := tb.Connect("a", 1, "b", 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := tb.Connect("a", 1, "b", 2, time.Millisecond); err == nil {
		t.Error("double-wired face accepted")
	}
	if err := tb.Connect("b", 3, "a", 1, time.Millisecond); err == nil {
		t.Error("double-wired far-end face accepted")
	}
	if err := tb.Connect("a", -1, "b", 4, time.Millisecond); err == nil {
		t.Error("negative face accepted")
	}
	if err := tb.Connect("a", 5, "b", maxFace+1, time.Millisecond); err == nil {
		t.Error("face beyond maxFace accepted")
	}
	for _, d := range []time.Duration{0, -time.Millisecond} {
		if err := tb.Connect("a", 5, "b", 6, d); err == nil {
			t.Errorf("delay %v accepted: a wire needs a positive propagation delay", d)
		}
	}
	if a, _ := tb.node("a"); tb.link(a, 5) != nil {
		t.Error("a rejected Connect left a half-wired link behind")
	}
}

// TestSparseAndUnwiredFaces: links sit in a slice indexed by face, so a node
// wired on faces 0 and 40 only must deliver on both, and actions naming a
// face in a gap, past the end or below zero must vanish without a trace, as
// they did when links were a map.
func TestSparseAndUnwiredFaces(t *testing.T) {
	tb := New()
	got := map[string]int{}
	tb.AddNode("hub", func(_ time.Time, _ ndn.FaceID, pkt *wire.Packet, out ndn.ActionSink) {
		for _, f := range []ndn.FaceID{0, 7, 40, 41, 1 << 30, -3} {
			out.Emit(ndn.Action{Face: f, Packet: pkt})
		}
	}, func(*wire.Packet) time.Duration { return 0 }, 0)
	leaf := func(name string) {
		tb.AddNode(name, func(_ time.Time, from ndn.FaceID, _ *wire.Packet, _ ndn.ActionSink) {
			if from != 9 {
				t.Errorf("%s: packet arrived on face %d, want 9", name, from)
			}
			got[name]++
		}, func(*wire.Packet) time.Duration { return 0 }, 0)
	}
	leaf("near")
	leaf("far")
	if err := tb.Connect("hub", 0, "near", 9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := tb.Connect("hub", 40, "far", 9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	t0 := tb.Now()
	pkt := &wire.Packet{Type: wire.TypeInterest, Name: "/x"}
	tb.Inject(t0, "hub", 3, pkt) // arrival faces need no wire
	tb.Inject(t0, "nobody", 0, pkt)
	tb.Emit(t0, "hub", []ndn.Action{{Face: 40, Packet: pkt}, {Face: 39, Packet: pkt}, {Face: 4096, Packet: pkt}})
	tb.EmitTo(t0, "hub", func(sink ndn.ActionSink) {
		sink.Emit(ndn.Action{Face: 0, Packet: pkt})
		sink.Emit(ndn.Action{Face: 1, Packet: pkt})
	})
	if err := tb.Run(t0.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	if got["near"] != 2 || got["far"] != 2 {
		t.Errorf("deliveries = %v, want 2 at near (handler, EmitTo) and 2 at far (handler, Emit)", got)
	}
	if events, _ := tb.Stats(); events != 5 {
		t.Errorf("packet events = %d, want 5 (1 at hub, 2 at each leaf)", events)
	}
}

func TestBatchCodec(t *testing.T) {
	in := []batchRecord{{sentAt: 123, size: 10}, {sentAt: 456, size: 0}, {sentAt: 789, size: 300}}
	out := decodeBatch(encodeBatch(in))
	if len(out) != 3 {
		t.Fatalf("decoded %d records", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("record %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	if got := decodeBatch([]byte{1, 2, 3}); got != nil {
		t.Errorf("garbage decoded: %v", got)
	}
	// Truncated payload stops cleanly.
	enc := encodeBatch(in)
	if got := decodeBatch(enc[:15]); len(got) != 0 {
		t.Errorf("truncated batch yielded %v", got)
	}
}

// scaled setup shared by the three system tests.
func microSetup(t *testing.T) *Setup {
	t.Helper()
	s, err := ScaledSetup(45*time.Second, 99)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunGCOPSSMicro(t *testing.T) {
	s := microSetup(t)
	res, err := RunGCOPSS(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Published == 0 || res.Deliveries == 0 {
		t.Fatalf("published=%d deliveries=%d", res.Published, res.Deliveries)
	}
	// Every update reaches its visible peers: with 62 players 2-per-area the
	// average fan-out is several receivers per update.
	if ratio := float64(res.Deliveries) / float64(res.Published); ratio < 3 {
		t.Errorf("delivery fan-out = %.1f, suspiciously low", ratio)
	}
	// Uncongested: mean latency in single-digit milliseconds (the paper
	// measures 8.51 ms), and no multi-second stragglers.
	mean := res.Latency.Mean()
	if mean < 3 || mean > 20 {
		t.Errorf("G-COPSS mean latency = %.2f ms, want ≈8.5", mean)
	}
	if res.Latency.Max() > 100 {
		t.Errorf("G-COPSS max latency = %.2f ms", res.Latency.Max())
	}
}

func TestRunIPServerMicro(t *testing.T) {
	s := microSetup(t)
	res, err := RunIPServer(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Published == 0 || res.Deliveries == 0 {
		t.Fatalf("published=%d deliveries=%d", res.Published, res.Deliveries)
	}
	mean := res.Latency.Mean()
	if mean < 12 || mean > 60 {
		t.Errorf("IP server mean latency = %.2f ms, want ≈25", mean)
	}
	// "about 8% of players experience an update latency over 55ms": a
	// visible tail above 55 ms, but not the majority.
	frac := res.Latency.FractionAbove(55)
	if frac == 0 || frac > 0.5 {
		t.Errorf("fraction above 55ms = %.3f", frac)
	}
}

func TestRunNDNMicro(t *testing.T) {
	s := microSetup(t)
	res, err := RunNDN(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Published == 0 {
		t.Fatal("nothing published")
	}
	if res.Deliveries == 0 {
		t.Fatal("nothing delivered")
	}
	// The interest storm must congest the 3.3 ms routers: latencies reach
	// seconds (the paper reports a 12 s average over the full run).
	if mean := res.Latency.Mean(); mean < 500 {
		t.Errorf("NDN mean latency = %.2f ms, want severe congestion (seconds)", mean)
	}
}

func TestFig4Ordering(t *testing.T) {
	// The headline microbenchmark result: G-COPSS < IP server ≪ NDN.
	s := microSetup(t)
	gc, err := RunGCOPSS(s)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := RunIPServer(s)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := RunNDN(s)
	if err != nil {
		t.Fatal(err)
	}
	if !(gc.Latency.Mean() < ip.Latency.Mean() && ip.Latency.Mean() < nd.Latency.Mean()) {
		t.Errorf("ordering violated: gcopss=%.2f ip=%.2f ndn=%.2f",
			gc.Latency.Mean(), ip.Latency.Mean(), nd.Latency.Mean())
	}
	if nd.Latency.Mean() < 10*ip.Latency.Mean() {
		t.Errorf("NDN should be an order of magnitude worse: ip=%.2f ndn=%.2f",
			ip.Latency.Mean(), nd.Latency.Mean())
	}
}
