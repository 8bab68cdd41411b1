package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// fanOutRouter builds a router with nClients client faces subscribed to /1
// and one upstream router face (id 1000) the Multicast arrives on.
func fanOutRouter(t testing.TB, nClients int) *Router {
	t.Helper()
	r := NewRouter("R")
	r.AddFace(1000, FaceRouter)
	for i := 0; i < nClients; i++ {
		f := ndn.FaceID(i + 1)
		r.AddFace(f, FaceClient)
		handle(r, time.Unix(0, 0), f, &wire.Packet{
			Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1")},
		})
	}
	return r
}

func fanOutMulticast() *wire.Packet {
	return &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{cd.MustParse("/1/2")},
		Payload: make([]byte, 200),
		Origin:  "player-0",
	}
}

// TestDistributeFanOutShares pins the copy-free fan-out contract: every
// action of an N-face fan-out carries the arrival packet itself, unchanged.
func TestDistributeFanOutShares(t *testing.T) {
	r := fanOutRouter(t, 8)
	pkt := fanOutMulticast()
	before := *pkt
	out := handle(r, time.Unix(1, 0), 1000, pkt)
	if len(out) != 8 {
		t.Fatalf("fan-out = %d actions, want 8", len(out))
	}
	for i, a := range out {
		if a.Packet != pkt {
			t.Fatalf("action %d carries %p, want the arrival packet %p", i, a.Packet, pkt)
		}
	}
	if !reflect.DeepEqual(*pkt, before) {
		t.Errorf("fan-out changed the packet:\n got  %+v\n want %+v", *pkt, before)
	}
}

// TestFanOutAccountsOnce: a fan-out to ten client faces, 0.1 ms after the
// publication was sent, counts ten out-packets and leaves the latency
// histogram exactly as ten Observe(0.1) calls would — Sum's bits included,
// which ten additions of 0.1 and 0.1*10 do not share.
func TestFanOutAccountsOnce(t *testing.T) {
	r := fanOutRouter(t, 10)
	pkt := fanOutMulticast()
	now := time.Unix(1, 0)
	pkt.SentAt = now.UnixNano() - 100_000
	if out := handle(r, now, 1000, pkt); len(out) != 10 {
		t.Fatalf("fan-out = %d actions, want 10", len(out))
	}
	want := obs.NewHistogram(obs.LatencyBucketsMs())
	for i := 0; i < 10; i++ {
		want.Observe(0.1)
	}
	got := r.deliveryLatency
	if got.Count() != 10 || math.Float64bits(got.Sum()) != math.Float64bits(want.Sum()) ||
		fmt.Sprint(got.Snapshot()) != fmt.Sprint(want.Snapshot()) {
		t.Errorf("latency histogram count %d sum %v buckets %v, want %d %v %v",
			got.Count(), got.Sum(), got.Snapshot(), want.Count(), want.Sum(), want.Snapshot())
	}
	if n := r.ctr.multicastOut.Value(); n != 10 {
		t.Errorf("multicast_out = %d, want 10", n)
	}
}

// TestDistributeAllocBudget locks the fan-out allocation budget on the hot
// path — HandlePacketTo with a reused sink, the seam the testbed runs on:
// a warm N-face fan-out forwards the arrival packet and allocates nothing,
// however wide it is.
func TestDistributeAllocBudget(t *testing.T) {
	for _, n := range []int{4, 64} {
		r := fanOutRouter(t, n)
		pkt := fanOutMulticast()
		now := time.Unix(1, 0)
		var sink ndn.SliceSink
		r.HandlePacketTo(now, 1000, pkt, &sink) // warm ST scratch, caches, sink capacity
		allocs := testing.AllocsPerRun(100, func() {
			sink.Reset()
			r.HandlePacketTo(now, 1000, pkt, &sink)
		})
		if allocs != 0 {
			t.Errorf("%d-face fan-out allocs/op = %v, want 0", n, allocs)
		}
	}
}

// TestFloodExceptAllocFree pins the control-flood budget: flooding to eight
// router faces collects and sorts them on the stack and, with a reused sink,
// allocates nothing.
func TestFloodExceptAllocFree(t *testing.T) {
	r := NewRouter("X")
	for _, id := range []ndn.FaceID{17, 3, 40, 9, 1, 25, 12, 38} {
		r.AddFace(id, FaceRouter)
	}
	pkt := &wire.Packet{Type: wire.TypeFIBAdd, Name: "/rp", Seq: 1, Origin: "X"}
	var sink ndn.SliceSink
	r.floodExcept(9, pkt, &sink) // warm sink capacity
	allocs := testing.AllocsPerRun(100, func() {
		sink.Reset()
		r.floodExcept(9, pkt, &sink)
	})
	if allocs != 0 {
		t.Errorf("floodExcept to 7 faces: %v allocs/op, want 0", allocs)
	}
}

// TestSharedFanOutNoConcurrentMutation delivers one shared fan-out packet to
// many downstream routers concurrently. Run under -race, this proves the
// immutable-after-send discipline end to end: any handler writing to the
// shared packet is a data race the detector flags.
func TestSharedFanOutNoConcurrentMutation(t *testing.T) {
	const downstreams = 8
	up := fanOutRouter(t, 2)
	pkt := fanOutMulticast()
	out := handle(up, time.Unix(1, 0), 1000, pkt)
	if len(out) == 0 {
		t.Fatal("no fan-out to exercise")
	}
	shared := out[0].Packet

	var wg sync.WaitGroup
	for i := 0; i < downstreams; i++ {
		r := NewRouter(fmt.Sprintf("D%d", i))
		r.AddFace(1000, FaceRouter)
		r.AddFace(1, FaceClient)
		handle(r, time.Unix(0, 0), 1, &wire.Packet{
			Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1")},
		})
		wg.Add(1)
		go func(r *Router) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				handle(r, time.Unix(2, 0), 1000, shared)
				// Serialization reads every field; combined with the handler
				// above it covers the full read surface of the fast path.
				if _, err := wire.Encode(shared); err != nil {
					t.Errorf("encode shared packet: %v", err)
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestFirstHopPublishAllocBudget pins what a first-hop router allocates for
// an untraced client publication. Toward a remote RP: one record holding the
// copy and the outer Interest, the encapsulation name, and the inner
// packet's encoding that the Interest carries — nothing else. On the RP
// itself the publication is distributed as it arrived, with no copy: only a
// new TraceID would need one.
func TestFirstHopPublishAllocBudget(t *testing.T) {
	info := copss.RPInfo{Name: "/rp1", Prefixes: []cd.CD{cd.MustParse("/1")}, Seq: 1}
	rp := NewRouter("RP")
	rp.AddFace(1, FaceRouter)
	rp.AddFace(2, FaceClient)
	rp.AddFace(3, FaceClient)
	announce, err := becomeRP(rp, info)
	if err != nil || len(announce) != 1 {
		t.Fatalf("become RP: %d actions, err %v", len(announce), err)
	}
	now := time.Unix(1, 0)
	handle(rp, now, 3, &wire.Packet{Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1")}})
	r := NewRouter("R")
	r.AddFace(1, FaceRouter)
	r.AddFace(2, FaceClient)
	handle(r, now, 1, announce[0].Packet)

	pub := &wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
		Origin: "player-0", Seq: 1, Payload: make([]byte, 32),
	}
	for _, tc := range []struct {
		name string
		r    *Router
		want float64
		ok   func([]ndn.Action) bool
	}{
		{"remote RP", r, 3, func(out []ndn.Action) bool {
			return len(out) == 1 && out[0].Face == 1 && out[0].Packet.Type == wire.TypeInterest
		}},
		{"RP-local", rp, 0, func(out []ndn.Action) bool {
			return len(out) == 1 && out[0].Face == 3 && out[0].Packet == pub
		}},
	} {
		var sink ndn.SliceSink
		tc.r.HandlePacketTo(now, 2, pub, &sink) // warm the name buffer, ST scratch and sink
		if !tc.ok(sink.Actions) {
			t.Errorf("%s: first hop emitted %+v", tc.name, sink.Actions)
		}
		allocs := testing.AllocsPerRun(200, func() {
			sink.Reset()
			tc.r.HandlePacketTo(now, 2, pub, &sink)
		})
		if allocs != tc.want {
			t.Errorf("%s first-hop publish: %v allocs/op, want %v", tc.name, allocs, tc.want)
		}
	}
}

// TestUnsubscribeCoveredAllocFree pins the aggregation check of an
// Unsubscribe that another face's subscription still covers: the router
// drops the entry, sends nothing upstream and allocates nothing. Each run
// re-adds the entry to the ST directly; face 2 keeps another CD and face 3
// the same one, so the re-add fits the capacity the table already has.
func TestUnsubscribeCoveredAllocFree(t *testing.T) {
	rp := NewRouter("RP")
	rp.AddFace(1, FaceRouter)
	announce, err := becomeRP(rp, copss.RPInfo{Name: "/rp1", Prefixes: []cd.CD{cd.MustParse("/1")}, Seq: 1})
	if err != nil || len(announce) != 1 {
		t.Fatalf("become RP: %d actions, err %v", len(announce), err)
	}
	r := NewRouter("R")
	r.AddFace(1, FaceRouter)
	r.AddFace(2, FaceClient)
	r.AddFace(3, FaceClient)
	now := time.Unix(1, 0)
	handle(r, now, 1, announce[0].Packet)
	c := cd.MustParse("/1/2")
	for _, sub := range []struct {
		face ndn.FaceID
		cd   cd.CD
	}{{2, c}, {2, cd.MustParse("/1/3")}, {3, c}} {
		handle(r, now, sub.face, &wire.Packet{Type: wire.TypeSubscribe, CDs: []cd.CD{sub.cd}})
	}
	unsub := &wire.Packet{Type: wire.TypeUnsubscribe, CDs: []cd.CD{c}}
	var sink ndn.SliceSink
	allocs := testing.AllocsPerRun(200, func() {
		r.st.Add(2, c)
		sink.Reset()
		r.HandlePacketTo(now, 2, unsub, &sink)
	})
	if len(sink.Actions) != 0 || r.st.Subscribed(2, c) {
		t.Fatalf("covered Unsubscribe: emitted %+v, face 2 still subscribed %v", sink.Actions, r.st.Subscribed(2, c))
	}
	if allocs != 0 {
		t.Errorf("covered Unsubscribe: %v allocs/op, want 0", allocs)
	}
}

// TestResubscribeAllocFree pins the RP walk of a Subscribe on a router that
// knows one RP: a client re-subscribing a CD already propagated upstream
// finds its RP by walking the RP table in place, is aggregated, emits
// nothing and allocates nothing (the walk once allocated a name slice and a
// slice of intersecting prefixes per RP).
func TestResubscribeAllocFree(t *testing.T) {
	rp := NewRouter("RP")
	rp.AddFace(1, FaceRouter)
	announce, err := becomeRP(rp, copss.RPInfo{Name: "/rp1", Prefixes: []cd.CD{cd.MustParse("/1")}, Seq: 1})
	if err != nil || len(announce) != 1 {
		t.Fatalf("become RP: %d actions, err %v", len(announce), err)
	}
	r := NewRouter("R")
	r.AddFace(1, FaceRouter)
	r.AddFace(2, FaceClient)
	now := time.Unix(1, 0)
	handle(r, now, 1, announce[0].Packet)
	sub := &wire.Packet{Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1/2")}}
	if out := handle(r, now, 2, sub); len(out) != 1 || out[0].Face != 1 {
		t.Fatalf("first Subscribe: emitted %+v, want one Subscribe toward the RP on face 1", out)
	}
	var sink ndn.SliceSink
	allocs := testing.AllocsPerRun(200, func() {
		sink.Reset()
		r.HandlePacketTo(now, 2, sub, &sink)
	})
	if len(sink.Actions) != 0 {
		t.Fatalf("repeated Subscribe: emitted %+v, want nothing", sink.Actions)
	}
	if allocs != 0 {
		t.Errorf("repeated Subscribe: %v allocs/op, want 0", allocs)
	}
}
