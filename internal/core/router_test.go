package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// lineTopology builds R1 - R2 - R3 with R1 hosting /rp serving the paper's
// world partition, announced by flooding.
func lineTopology(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t)
	h.addRouter("R1")
	h.addRouter("R2")
	h.addRouter("R3")
	h.connect("R1", 1, "R2", 1)
	h.connect("R2", 2, "R3", 1)

	info := copss.RPInfo{
		Name:     "/rp",
		Prefixes: copss.PartitionPrefixes([]string{"1", "2", "3", "4", "5"}),
		Seq:      1,
	}
	actions, err := becomeRP(h.routers["R1"], info)
	if err != nil {
		t.Fatalf("BecomeRP: %v", err)
	}
	h.enqueueActions("R1", actions)
	h.run()
	return h
}

func TestAnnouncementFlooding(t *testing.T) {
	h := lineTopology(t)
	for _, name := range []string{"R2", "R3"} {
		r := h.routers[name]
		info, ok := r.RPTable().Get("/rp")
		if !ok {
			t.Fatalf("%s: RP not learned", name)
		}
		if len(info.Prefixes) != 6 {
			t.Errorf("%s: prefixes = %v", name, info.Prefixes)
		}
		faces, _, ok := r.NDN().FIB().Lookup("/rp")
		if !ok {
			t.Fatalf("%s: no FIB route to RP", name)
		}
		if faces[0] != 1 { // both R2 and R3 reach the RP via their face 1
			t.Errorf("%s: route via face %d", name, faces[0])
		}
	}
	// Flood must terminate (dedup): in a line topology each non-origin
	// router sees the announcement exactly once (no echo back on the
	// arrival face).
	if got := h.routers["R2"].Stats().AnnouncementsIn; got != 1 {
		t.Errorf("R2 announcements = %d, want 1", got)
	}
}

func TestEndToEndHierarchicalPubSub(t *testing.T) {
	h := lineTopology(t)
	h.attach("soldier", "R3", 10)
	h.attach("plane", "R2", 10)
	h.attach("sat", "R1", 10)

	// Subscriptions per Fig. 1c.
	h.fromClient("soldier", sub("/", "/1/", "/1/2"))
	h.fromClient("plane", sub("/", "/1"))
	h.fromClient("sat", sub("")) // root: sees everything
	h.run()

	// RP-side ST must hold the narrowed subscriptions from downstream.
	r1 := h.routers["R1"]
	if got := r1.ST().CDsOf(1); len(got) == 0 {
		t.Fatalf("R1 has no downstream subscriptions: %v", r1.ST())
	}

	pubs := []struct {
		client string
		cd     string
		want   []string // clients that must receive it
	}{
		{"soldier", "/1/2", []string{"soldier", "plane", "sat"}},
		{"plane", "/1/", []string{"soldier", "plane", "sat"}},
		{"sat", "/", []string{"soldier", "plane", "sat"}},
		{"soldier", "/1/3", []string{"plane", "sat"}}, // sibling zone
		{"soldier", "/2/1", []string{"sat"}},          // other region
		{"plane", "/2/", []string{"sat"}},             // other region airspace
	}
	for i, p := range pubs {
		for _, c := range h.clients {
			c.received = nil
		}
		h.fromClient(p.client, mcast(p.cd, p.client, uint64(i+1), p.cd))
		h.run()
		var got []string
		for name, c := range h.clients {
			if len(c.multicastsReceived()) > 0 {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		want := append([]string(nil), p.want...)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pub %s to %s: delivered to %v, want %v", p.client, p.cd, got, want)
		}
	}
}

func TestSubscriptionAggregation(t *testing.T) {
	h := lineTopology(t)
	h.attach("a", "R3", 10)
	h.attach("b", "R3", 11)

	h.fromClient("a", sub("/1/2"))
	h.run()
	first := h.routers["R2"].Stats().SubscribesIn

	h.fromClient("b", sub("/1/2"))
	h.run()
	second := h.routers["R2"].Stats().SubscribesIn
	if second != first {
		t.Errorf("duplicate subscription propagated upstream: R2 saw %d then %d", first, second)
	}

	// A coarser subscription is NOT covered by a finer one and must travel.
	h.fromClient("b", sub("/1"))
	h.run()
	if got := h.routers["R2"].Stats().SubscribesIn; got == second {
		t.Error("coarser subscription was wrongly aggregated")
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	h := lineTopology(t)
	s := h.attach("s", "R3", 10)
	h.fromClient("s", sub("/1/2"))
	h.run()

	h.fromClient("s", mcast("/1/2", "s", 1, "before"))
	h.run()
	if got := s.multicastsReceived(); len(got) != 1 {
		t.Fatalf("pre-unsubscribe delivery = %v", got)
	}

	h.fromClient("s", unsub("/1/2"))
	h.run()
	s.received = nil
	h.fromClient("s", mcast("/1/2", "s", 2, "after"))
	h.run()
	if got := s.multicastsReceived(); len(got) != 0 {
		t.Errorf("post-unsubscribe delivery = %v", got)
	}
	// The withdrawal must have propagated: the RP's ST no longer lists /1/2
	// for the R2-facing face.
	if h.routers["R1"].ST().Subscribed(1, cd.MustParse("/1/2")) {
		t.Error("RP retains withdrawn subscription")
	}
}

func TestUnsubscribeRepropagatesFinerSubscription(t *testing.T) {
	h := lineTopology(t)
	a := h.attach("a", "R3", 10) // coarse subscriber
	b := h.attach("b", "R3", 11) // fine subscriber, aggregated under a
	h.fromClient("a", sub("/1"))
	h.fromClient("b", sub("/1/2"))
	h.run()

	h.fromClient("a", unsub("/1"))
	h.run()

	a.received, b.received = nil, nil
	h.fromClient("b", mcast("/1/2", "b", 1, "x"))
	h.run()
	if got := b.multicastsReceived(); len(got) != 1 {
		t.Errorf("fine subscriber lost delivery after coarse unsubscribe: %v", got)
	}
	if got := a.multicastsReceived(); len(got) != 0 {
		t.Errorf("coarse subscriber still receiving: %v", got)
	}
	// Sibling zone must no longer reach R3 at all.
	b.received = nil
	h.fromClient("b", mcast("/1/3", "b", 2, "y"))
	h.run()
	if got := b.multicastsReceived(); len(got) != 0 {
		t.Errorf("sibling zone leaked to fine subscriber: %v", got)
	}
}

func TestPublisherReceivesOwnUpdateWhenSubscribed(t *testing.T) {
	h := lineTopology(t)
	s := h.attach("s", "R3", 10)
	h.fromClient("s", sub("/1/2"))
	h.run()
	h.fromClient("s", mcast("/1/2", "s", 1, "self"))
	h.run()
	if got := s.multicastsReceived(); !reflect.DeepEqual(got, []string{"self"}) {
		t.Errorf("self delivery = %v", got)
	}
}

func TestPublishDirectlyAtRPHost(t *testing.T) {
	h := lineTopology(t)
	s := h.attach("s", "R3", 10)
	p := h.attach("p", "R1", 11) // publisher attached to the RP host
	h.fromClient("s", sub("/3/3"))
	h.run()
	h.fromClient("p", mcast("/3/3", "p", 1, "direct"))
	h.run()
	if got := s.multicastsReceived(); !reflect.DeepEqual(got, []string{"direct"}) {
		t.Errorf("delivery = %v", got)
	}
	if h.routers["R1"].Stats().PublishEncapsulated != 0 {
		t.Error("publication at RP host should not be encapsulated")
	}
	_ = p
}

func TestMulticastToUnservedCDIsDropped(t *testing.T) {
	h := lineTopology(t)
	h.attach("p", "R3", 10)
	h.fromClient("p", mcast("/9/9", "p", 1, "nowhere")) // outside the partition? /9 is covered by nothing
	h.run()
	// PartitionPrefixes(["1".."5"]) + "/" does not cover /9/9.
	if got := h.routers["R3"].Stats().Dropped; got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
}

func TestNDNQueryResponsePassthrough(t *testing.T) {
	h := lineTopology(t)

	// Producer at R3 answers /snapshot interests; FIB entries lead there.
	producer := h.attach("producer", "R3", 10)
	producer.onPacket = func(p *wire.Packet) []*wire.Packet {
		if p.Type != wire.TypeInterest {
			return nil
		}
		return []*wire.Packet{{Type: wire.TypeData, Name: p.Name, Payload: []byte("snapshot-of-" + p.Name)}}
	}
	h.routers["R3"].NDN().FIB().Add("/snapshot", 10)
	h.routers["R2"].NDN().FIB().Add("/snapshot", 2) // face toward R3
	h.routers["R1"].NDN().FIB().Add("/snapshot", 1) // face toward R2

	consumer := h.attach("consumer", "R1", 11)
	h.fromClient("consumer", &wire.Packet{Type: wire.TypeInterest, Name: "/snapshot/1/3"})
	h.run()

	var data []string
	for _, p := range consumer.received {
		if p.Type == wire.TypeData {
			data = append(data, string(p.Payload))
		}
	}
	if !reflect.DeepEqual(data, []string{"snapshot-of-/snapshot/1/3"}) {
		t.Fatalf("consumer data = %v", data)
	}

	// The Data is now cached along the path: a consumer at R2 is served from
	// R2's content store without the producer seeing a second Interest.
	before := len(producer.received)
	consumer2 := h.attach("consumer2", "R2", 11)
	h.fromClient("consumer2", &wire.Packet{Type: wire.TypeInterest, Name: "/snapshot/1/3"})
	h.run()
	if len(producer.received) != before {
		t.Error("second interest reached producer despite cache")
	}
	found := false
	for _, p := range consumer2.received {
		if p.Type == wire.TypeData {
			found = true
		}
	}
	if !found {
		t.Error("cached data not delivered to second consumer")
	}
}

func TestInstallRPStatic(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRouter("R1")
	r2 := h.addRouter("R2")
	h.connect("R1", 1, "R2", 1)
	info := copss.RPInfo{Name: "/rp", Prefixes: []cd.CD{cd.Root()}, Seq: 1}
	if _, err := becomeRP(r1, info); err != nil {
		t.Fatal(err)
	}
	if err := r2.InstallRP(info, 1); err != nil {
		t.Fatal(err)
	}
	s := h.attach("s", "R1", 10)
	h.attach("p", "R2", 10)
	h.fromClient("s", sub("/anything"))
	h.run()
	h.fromClient("p", mcast("/anything/at/all", "p", 1, "ok"))
	h.run()
	if got := s.multicastsReceived(); !reflect.DeepEqual(got, []string{"ok"}) {
		t.Errorf("delivery = %v", got)
	}
}

func TestRouterMiscAccessors(t *testing.T) {
	r := NewRouter("X", WithNDNOptions(ndn.WithContentStore(4, time.Second)))
	if r.Name() != "X" {
		t.Errorf("Name = %q", r.Name())
	}
	r.AddFace(3, FaceClient)
	if k, ok := r.FaceKindOf(3); !ok || k != FaceClient {
		t.Error("FaceKindOf misreports")
	}
	if got := r.Faces(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Faces = %v", got)
	}
	r.RemoveFace(3)
	if _, ok := r.FaceKindOf(3); ok {
		t.Error("RemoveFace did not remove")
	}
	if r.IsRP("/rp") || len(r.LocalRPs()) != 0 {
		t.Error("fresh router should host no RPs")
	}
	// Unknown packet types are dropped, not crashed on.
	if acts := handle(r, time.Unix(0, 0), 3, &wire.Packet{Type: wire.Type(99)}); acts != nil {
		t.Errorf("unknown type actions = %v", acts)
	}
	// Multicast from an unregistered face is dropped.
	if acts := handle(r, time.Unix(0, 0), 77, mcast("/1", "x", 1, "p")); acts != nil {
		t.Errorf("unregistered face actions = %v", acts)
	}
}

// TestRemovedFaceDropsEveryPacket pins the unregistered-face rule: a packet
// that arrives on a face after RemoveFace (a host may have queued it before
// the removal) is dropped whatever its type, so it neither installs state
// nor sends anything upstream.
func TestRemovedFaceDropsEveryPacket(t *testing.T) {
	r := NewRouter("X")
	r.AddFace(1, FaceRouter)
	if err := r.InstallRP(copss.RPInfo{Name: "/rp", Prefixes: []cd.CD{cd.MustParse("/1")}, Seq: 1}, 1); err != nil {
		t.Fatal(err)
	}
	r.AddFace(2, FaceClient)
	r.RemoveFace(2)
	pkts := []*wire.Packet{
		sub("/1/2"),
		mcast("/1/2", "p", 1, "x"),
		{Type: wire.TypeJoin, Name: "/rp", CDs: []cd.CD{cd.MustParse("/1")}, CtlSeq: 7},
		{Type: wire.TypeAck, CtlSeq: 1},
	}
	for _, pkt := range pkts {
		if acts := handle(r, time.Unix(0, 0), 2, pkt); len(acts) != 0 {
			t.Errorf("%v from a removed face emitted %v", pkt.Type, acts)
		}
	}
	if n := r.ST().Len(); n != 0 {
		t.Errorf("ST holds %d entries after packets from a removed face", n)
	}
	if st := r.Stats(); st.Dropped != uint64(len(pkts)) || st.SubscribesIn != 0 || st.MulticastIn != 0 {
		t.Errorf("stats = %+v, want %d drops and nothing handled", st, len(pkts))
	}
}

func TestBecomeRPRejectsConflict(t *testing.T) {
	r := NewRouter("X")
	if _, err := becomeRP(r, copss.RPInfo{Name: "/a", Prefixes: []cd.CD{cd.MustParse("/1")}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := becomeRP(r, copss.RPInfo{Name: "/b", Prefixes: []cd.CD{cd.MustParse("/1/1")}, Seq: 1}); err == nil {
		t.Error("conflicting RP accepted")
	}
}
