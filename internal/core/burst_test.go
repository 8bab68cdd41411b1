package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// burstRouter builds a router with client faces 1..4 subscribed to /1 and
// faces 5..6 subscribed to /2, plus the upstream router face 1000 bursts
// arrive on. Two identical copies let the equivalence test diff the paths.
func burstRouter(t testing.TB) *Router {
	t.Helper()
	r := NewRouter("R")
	r.AddFace(1000, FaceRouter)
	for i := 1; i <= 6; i++ {
		f := ndn.FaceID(i)
		r.AddFace(f, FaceClient)
		sub := "/1"
		if i >= 5 {
			sub = "/2"
		}
		handle(r, time.Unix(0, 0), f, &wire.Packet{
			Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse(sub)},
		})
	}
	return r
}

func multicastFor(key string, seq uint64) *wire.Packet {
	return &wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse(key)}, Payload: []byte("mv"),
		Origin: "player-0", Seq: seq, SentAt: 5,
	}
}

// mixedBurst builds a burst interleaving same-CD multicast runs with other
// traffic: two CDs, an unstamped multicast, a flush marker, a Subscribe and
// an Ack.
func mixedBurst() []*wire.Packet {
	return []*wire.Packet{
		multicastFor("/1/2", 1),
		multicastFor("/1/2", 2), // same CD
		multicastFor("/1/2", 3),
		multicastFor("/2/9", 4), // different CD
		{Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
			Origin: FlushOrigin, Name: FlushOrigin + "/X"}, // flush marker
		{Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1/7")}}, // ST mutation
		multicastFor("/1/2", 5),                                        // after the ST changed
		{Type: wire.TypeAck, CtlSeq: 99},                               // consumed silently
		{Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")}}, // unstamped: no SentAt
	}
}

// TestHandleBurstMatchesSequential pins the burst contract: HandleBurst must
// emit exactly the action stream of calling HandlePacketTo on each packet in
// order — same faces, same packet bytes — and leave identical router stats.
func TestHandleBurstMatchesSequential(t *testing.T) {
	now := time.Unix(1, 0)
	pkts := mixedBurst()
	// Beside the fixture's client subscribers, a downstream router face
	// subscribed to /1: fan-out to it is forwarding, not delivery, so it
	// must add actions but no delivery-latency samples on either path.
	build := func() *Router {
		r := burstRouter(t)
		r.AddFace(7, FaceRouter)
		handle(r, time.Unix(0, 0), 7, &wire.Packet{
			Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1")},
		})
		return r
	}

	seq := build()
	var seqSink ndn.SliceSink
	for _, p := range pkts {
		seq.HandlePacketTo(now, 1000, p, &seqSink)
	}

	bur := build()
	var burSink ndn.SliceSink
	bur.HandleBurst(now, 1000, pkts, &burSink)

	if len(burSink.Actions) != len(seqSink.Actions) {
		t.Fatalf("burst emitted %d actions, sequential %d", len(burSink.Actions), len(seqSink.Actions))
	}
	for i := range seqSink.Actions {
		want, got := seqSink.Actions[i], burSink.Actions[i]
		if got.Face != want.Face {
			t.Fatalf("action %d: face %d, want %d", i, got.Face, want.Face)
		}
		wb, err1 := wire.Encode(want.Packet)
		gb, err2 := wire.Encode(got.Packet)
		if err1 != nil || err2 != nil {
			t.Fatalf("action %d: encode errs %v / %v", i, err1, err2)
		}
		if !bytes.Equal(wb, gb) {
			t.Fatalf("action %d: packet bytes differ\nburst: %x\nseq:   %x", i, gb, wb)
		}
	}
	if bur.Stats() != seq.Stats() {
		t.Errorf("stats diverged:\nburst: %+v\nseq:   %+v", bur.Stats(), seq.Stats())
	}
	// Deliveries to client faces feed the latency histogram on both paths;
	// the router-face subscriber and the unstamped packets do not.
	bl, sl := bur.deliveryLatency.Count(), seq.deliveryLatency.Count()
	if bl != sl || bl == 0 || bl >= uint64(len(seqSink.Actions)) {
		t.Errorf("delivery-latency samples: burst %d, sequential %d, of %d actions", bl, sl, len(seqSink.Actions))
	}
}

// TestHandleBurstForwardsArrival pins the copy-free burst fan-out: every
// action of a burst carries its arrival packet itself, unchanged.
func TestHandleBurstForwardsArrival(t *testing.T) {
	r := burstRouter(t)
	pkts := []*wire.Packet{
		multicastFor("/1/2", 1),
		multicastFor("/1/2", 2),
	}
	before := []wire.Packet{*pkts[0], *pkts[1]}
	var sink ndn.SliceSink
	r.HandleBurst(time.Unix(1, 0), 1000, pkts, &sink)
	if len(sink.Actions) != 8 { // 2 packets × 4 subscribed faces under /1
		t.Fatalf("fan-out = %d actions, want 8", len(sink.Actions))
	}
	for i, a := range sink.Actions {
		if want := pkts[i/4]; a.Packet != want {
			t.Fatalf("action %d carries %p, want arrival packet %d (%p)", i, a.Packet, i/4, want)
		}
	}
	for k, p := range pkts {
		if !reflect.DeepEqual(*p, before[k]) {
			t.Errorf("burst changed packet %d:\n got  %+v\n want %+v", k, *p, before[k])
		}
	}
}

// TestHandleBurstAllocBudget locks the burst allocation budget: a warm
// burst of same-CD multicasts at width 16 or 32 forwards the arrival
// packets and allocates nothing.
func TestHandleBurstAllocBudget(t *testing.T) {
	for _, width := range []int{16, 32} {
		r := fanOutRouter(t, 8)
		pkts := make([]*wire.Packet, width)
		for i := range pkts {
			pkts[i] = multicastFor("/1/2", uint64(i+1))
		}
		now := time.Unix(1, 0)
		var sink ndn.SliceSink
		r.HandleBurst(now, 1000, pkts, &sink) // warm ST scratch and sink capacity
		allocs := testing.AllocsPerRun(100, func() {
			sink.Reset()
			r.HandleBurst(now, 1000, pkts, &sink)
		})
		if allocs != 0 {
			t.Errorf("width %d: %v allocs/op, want 0", width, allocs)
		}
	}
}
