package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
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

func hashedMulticast() *wire.Packet {
	c := cd.MustParse("/1/2")
	return &wire.Packet{
		Type:     wire.TypeMulticast,
		CDs:      []cd.CD{c},
		Payload:  make([]byte, 200),
		Origin:   "player-0",
		CDHashes: copss.FlattenHashes(copss.PrefixHashes(c)),
	}
}

// TestDistributeFanOutShares pins the zero-copy fan-out contract: every
// action of an N-face fan-out carries the same forwarded packet, and that
// packet shares the payload (and CD hash vector) with the arrival.
func TestDistributeFanOutShares(t *testing.T) {
	r := fanOutRouter(t, 8)
	pkt := hashedMulticast()
	out := handle(r, time.Unix(1, 0), 1000, pkt)
	if len(out) != 8 {
		t.Fatalf("fan-out = %d actions, want 8", len(out))
	}
	first := out[0].Packet
	if first == pkt {
		t.Fatal("fan-out forwarded the arrival packet itself; HopCount would be wrong")
	}
	for i, a := range out {
		if a.Packet != first {
			t.Fatalf("action %d carries a distinct packet; fan-out must share one", i)
		}
	}
	if &first.Payload[0] != &pkt.Payload[0] {
		t.Error("fan-out copied the payload; it must share it")
	}
	if &first.CDHashes[0] != &pkt.CDHashes[0] {
		t.Error("fan-out copied the CD hash vector; it must share it")
	}
	if first.HopCount != pkt.HopCount+1 {
		t.Errorf("HopCount = %d, want %d", first.HopCount, pkt.HopCount+1)
	}
}

// TestDistributeAllocBudget locks the fan-out allocation budget on the hot
// path — HandlePacketTo with a reused sink, the seam testbed shards run on:
// a warm N-face fan-out costs a small constant number of allocations (the
// one shared forwarding copy) — growing the fan-out must not grow the count.
func TestDistributeAllocBudget(t *testing.T) {
	budget := func(n int) float64 {
		r := fanOutRouter(t, n)
		pkt := hashedMulticast()
		now := time.Unix(1, 0)
		var sink ndn.SliceSink
		r.HandlePacketTo(now, 1000, pkt, &sink) // warm ST scratch, caches, sink capacity
		return testing.AllocsPerRun(100, func() {
			sink.Reset()
			r.HandlePacketTo(now, 1000, pkt, &sink)
		})
	}
	small, large := budget(4), budget(64)
	if small > 2 {
		t.Errorf("4-face fan-out allocs/op = %v, want <= 2", small)
	}
	if large > small {
		t.Errorf("allocs grew with fan-out width: %v at 4 faces, %v at 64", small, large)
	}
}

// TestSharedFanOutNoConcurrentMutation delivers one shared fan-out packet to
// many downstream routers concurrently. Run under -race, this proves the
// immutable-after-send discipline end to end: any handler writing to the
// shared packet is a data race the detector flags.
func TestSharedFanOutNoConcurrentMutation(t *testing.T) {
	const downstreams = 8
	up := fanOutRouter(t, 2)
	pkt := hashedMulticast()
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
