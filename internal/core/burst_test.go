package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
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

func hashedMulticastFor(key string, seq uint64, hashes []uint64) *wire.Packet {
	c := cd.MustParse(key)
	if hashes == nil {
		hashes = copss.FlattenHashes(copss.PrefixHashes(c))
	}
	return &wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{c}, Payload: []byte("mv"),
		Origin: "player-0", Seq: seq, SentAt: 5, CDHashes: hashes,
	}
}

// mixedBurst builds a burst interleaving groupable multicast runs with
// fallback traffic: two CDs, a shared-slice hash vector, an unhashed
// multicast, a flush marker, a Subscribe and an Ack.
func mixedBurst() []*wire.Packet {
	h12 := copss.FlattenHashes(copss.PrefixHashes(cd.MustParse("/1/2")))
	return []*wire.Packet{
		hashedMulticastFor("/1/2", 1, h12),
		hashedMulticastFor("/1/2", 2, h12), // same slice: pointer-equal group
		hashedMulticastFor("/1/2", 3, nil), // equal content, distinct slice
		hashedMulticastFor("/2/9", 4, nil), // new group: different CD
		{Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
			Origin: FlushOrigin, Name: FlushOrigin + "/X"}, // fallback: marker
		{Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1/7")}}, // fallback: ST mutation
		hashedMulticastFor("/1/2", 5, h12),                             // new run after the fallback break
		{Type: wire.TypeAck, CtlSeq: 99},                               // fallback: consumed silently
		{Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")}}, // no hashes: FacesFor path
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

// TestHandleBurstSharesSlabCopies pins the slab fan-out: within one group all
// actions of one packet share one forwarding copy, distinct packets get
// distinct copies, and the copies share the arrival's payload and hashes.
func TestHandleBurstSharesSlabCopies(t *testing.T) {
	r := burstRouter(t)
	h := copss.FlattenHashes(copss.PrefixHashes(cd.MustParse("/1/2")))
	pkts := []*wire.Packet{
		hashedMulticastFor("/1/2", 1, h),
		hashedMulticastFor("/1/2", 2, h),
	}
	var sink ndn.SliceSink
	r.HandleBurst(time.Unix(1, 0), 1000, pkts, &sink)
	if len(sink.Actions) != 8 { // 2 packets × 4 subscribed faces under /1
		t.Fatalf("fan-out = %d actions, want 8", len(sink.Actions))
	}
	first, second := sink.Actions[0].Packet, sink.Actions[4].Packet
	for i := 0; i < 4; i++ {
		if sink.Actions[i].Packet != first {
			t.Fatalf("action %d: packet 1's fan-out must share one copy", i)
		}
		if sink.Actions[4+i].Packet != second {
			t.Fatalf("action %d: packet 2's fan-out must share one copy", 4+i)
		}
	}
	if first == second {
		t.Fatal("distinct packets shared a forwarding copy")
	}
	if first == pkts[0] || second == pkts[1] {
		t.Fatal("burst forwarded an arrival packet itself")
	}
	if &first.Payload[0] != &pkts[0].Payload[0] {
		t.Error("burst copied a payload; it must share it")
	}
	if &first.CDHashes[0] != &pkts[0].CDHashes[0] {
		t.Error("burst copied a CD hash vector; it must share it")
	}
	if first.HopCount != pkts[0].HopCount+1 {
		t.Errorf("HopCount = %d, want %d", first.HopCount, pkts[0].HopCount+1)
	}
}

// TestHandleBurstAllocBudget locks the amortized allocation budget of the
// satellite: at burst width >= 16 a warm grouped fan-out must cost strictly
// less than one allocation per packet (the whole burst shares one slab).
func TestHandleBurstAllocBudget(t *testing.T) {
	for _, width := range []int{16, 32} {
		r := fanOutRouter(t, 8)
		h := copss.FlattenHashes(copss.PrefixHashes(cd.MustParse("/1/2")))
		pkts := make([]*wire.Packet, width)
		for i := range pkts {
			pkts[i] = hashedMulticastFor("/1/2", uint64(i+1), h)
		}
		now := time.Unix(1, 0)
		var sink ndn.SliceSink
		r.HandleBurst(now, 1000, pkts, &sink) // warm ST scratch and sink capacity
		allocs := testing.AllocsPerRun(100, func() {
			sink.Reset()
			r.HandleBurst(now, 1000, pkts, &sink)
		})
		if perPkt := allocs / float64(width); perPkt >= 1 {
			t.Errorf("width %d: %v allocs/op = %v per packet, want < 1", width, allocs, perPkt)
		}
		if allocs > 2 {
			t.Errorf("width %d: %v allocs/op, want <= 2 (one slab + slack)", width, allocs)
		}
	}
}
