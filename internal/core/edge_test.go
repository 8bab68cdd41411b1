package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

func TestPurePrefixAnnouncementFloods(t *testing.T) {
	h := lineTopology(t)
	// A broker on R3 announces /snapshot; every router must learn a route
	// pointing toward R3.
	h.attach("broker", "R3", 40)
	h.fromClient("broker", &wire.Packet{
		Type:   wire.TypeFIBAdd,
		Name:   "/snapshot",
		Seq:    99,
		Origin: "broker",
	})
	h.run()
	for _, name := range []string{"R1", "R2", "R3"} {
		faces, _, ok := h.routers[name].NDN().FIB().Lookup("/snapshot/1/1/_manifest")
		if !ok {
			t.Fatalf("%s has no /snapshot route", name)
		}
		_ = faces
	}
	// R1's route points toward R2, R2's toward R3, R3's toward the broker.
	f1, _, _ := h.routers["R1"].NDN().FIB().Lookup("/snapshot/x")
	if !reflect.DeepEqual(f1, []ndn.FaceID{1}) {
		t.Errorf("R1 route = %v", f1)
	}
	f3, _, _ := h.routers["R3"].NDN().FIB().Lookup("/snapshot/x")
	if !reflect.DeepEqual(f3, []ndn.FaceID{40}) {
		t.Errorf("R3 route = %v", f3)
	}
	// A stale re-announcement (lower seq) is ignored and not re-flooded.
	before := h.routers["R1"].Stats().AnnouncementsIn
	h.fromClient("broker", &wire.Packet{
		Type: wire.TypeFIBAdd, Name: "/snapshot", Seq: 5, Origin: "broker",
	})
	h.run()
	if got := h.routers["R1"].Stats().AnnouncementsIn; got != before {
		t.Errorf("stale announcement re-flooded: %d -> %d", before, got)
	}
}

// emitted collects the actions a sink-based handler pushes, for tests that
// exercise internal handlers directly.
func emitted(fn func(sink ndn.ActionSink)) []ndn.Action {
	var sink ndn.SliceSink
	fn(&sink)
	return sink.Actions
}

func TestPruneEdgeCases(t *testing.T) {
	r := NewRouter("X")
	r.AddFace(1, FaceRouter)
	// Prune for an unknown RP is dropped.
	acts := emitted(func(s ndn.ActionSink) {
		r.handlePrune(time.Unix(0, 0), 1, &wire.Packet{
			Type: wire.TypePrune, Name: "/ghost", CDs: []cd.CD{cd.MustParse("/1")},
		}, s)
	})
	if acts != nil || r.Stats().Dropped != 1 {
		t.Errorf("unknown-RP prune: acts=%v stats=%+v", acts, r.Stats())
	}
	// Prune arriving at the RP itself is consumed.
	if _, err := becomeRP(r, copss.RPInfo{Name: "/rp", Prefixes: []cd.CD{cd.MustParse("/1")}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	acts = emitted(func(s ndn.ActionSink) {
		r.handlePrune(time.Unix(0, 0), 1, &wire.Packet{
			Type: wire.TypePrune, Name: "/rp", CDs: []cd.CD{cd.MustParse("/1")},
		}, s)
	})
	if acts != nil {
		t.Errorf("RP-host prune forwarded: %v", acts)
	}
}

func TestFlushLeavesIgnoresForeignMarkers(t *testing.T) {
	r := NewRouter("X")
	r.AddFace(1, FaceRouter)
	r.grafts["/rp"] = &graft{
		confirmed:    true,
		hasOld:       true,
		oldFace:      1,
		oldRP:        "/old",
		pendingLeave: cd.NewSet(cd.MustParse("/1")),
	}
	// A marker for another router must not trigger our leave.
	foreign := &wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1")},
		Origin: FlushOrigin, Name: flushMarkerName("Y"),
	}
	if acts := emitted(func(s ndn.ActionSink) { r.flushLeaves(time.Unix(0, 0), 1, foreign, s) }); acts != nil {
		t.Errorf("foreign marker triggered leave: %v", acts)
	}
	// Our marker on the WRONG face must not either.
	ours := &wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1")},
		Origin: FlushOrigin, Name: flushMarkerName("X"),
	}
	if acts := emitted(func(s ndn.ActionSink) { r.flushLeaves(time.Unix(0, 0), 2, ours, s) }); acts != nil {
		t.Errorf("wrong-face marker triggered leave: %v", acts)
	}
	// Our marker on the old face releases the leave exactly once.
	acts := emitted(func(s ndn.ActionSink) { r.flushLeaves(time.Unix(0, 0), 1, ours, s) })
	if len(acts) != 1 || acts[0].Packet.Type != wire.TypeLeave || acts[0].Face != 1 {
		t.Fatalf("leave = %v", acts)
	}
	if acts := emitted(func(s ndn.ActionSink) { r.flushLeaves(time.Unix(0, 0), 1, ours, s) }); acts != nil {
		t.Errorf("leave emitted twice: %v", acts)
	}
}

func TestMaybeLeaveRequiresConfirmAndMarker(t *testing.T) {
	r := NewRouter("X")
	g := &graft{
		hasOld:       true,
		oldFace:      1,
		oldRP:        "/old",
		pendingLeave: cd.NewSet(cd.MustParse("/1")),
	}
	if acts := emitted(func(s ndn.ActionSink) { r.maybeLeaveOldBranch(time.Unix(0, 0), g, s) }); acts != nil {
		t.Error("leave without confirm or marker")
	}
	g.confirmed = true
	if acts := emitted(func(s ndn.ActionSink) { r.maybeLeaveOldBranch(time.Unix(0, 0), g, s) }); acts != nil {
		t.Error("leave without marker")
	}
	g.markerSeen = true
	if acts := emitted(func(s ndn.ActionSink) { r.maybeLeaveOldBranch(time.Unix(0, 0), g, s) }); len(acts) != 1 {
		t.Error("leave not released")
	}
}

func TestPublishTowardWithoutRoute(t *testing.T) {
	r := NewRouter("X")
	r.AddFace(1, FaceClient)
	// The router knows the RP exists (via rpt) but has no FIB route.
	if err := r.RPTable().Set("/rp", []cd.CD{cd.MustParse("/1")}, 1); err != nil {
		t.Fatal(err)
	}
	acts := handle(r, time.Unix(0, 0), 1, &wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/1")},
		Origin: "p", Payload: []byte("x"),
	})
	if acts != nil || r.Stats().Dropped == 0 {
		t.Errorf("routeless publish: acts=%v stats=%+v", acts, r.Stats())
	}
}

func TestAnnouncementConflictDropped(t *testing.T) {
	h := lineTopology(t) // /rp serves the whole partition already
	before := h.routers["R2"].Stats().Dropped
	// A conflicting RP announcement (prefix /1/1 nested under /rp's /1).
	h.attach("rogue", "R2", 41)
	h.routers["R2"].AddFace(42, FaceRouter) // pretend a router face
	handle(h.routers["R2"], time.Unix(0, 0), 42, &wire.Packet{
		Type: wire.TypeFIBAdd, Name: "/rogue", CDs: []cd.CD{cd.MustParse("/1/1")}, Seq: 3,
	})
	if got := h.routers["R2"].Stats().Dropped; got != before+1 {
		t.Errorf("conflicting announcement not dropped: %d -> %d", before, got)
	}
}

func TestUnsubscribeRepropagationCoverage(t *testing.T) {
	// withdrawIfUnneeded's re-propagation path: coarse /2 withdrawn while a
	// finer /2/3 subscription remains on another face of the SAME router.
	h := lineTopology(t)
	a := h.attach("a", "R3", 50)
	b := h.attach("b", "R3", 51)
	h.fromClient("a", sub("/2"))
	h.fromClient("b", sub("/2/3"))
	h.run()
	h.fromClient("a", unsub("/2"))
	h.run()
	_ = a
	b.received = nil
	h.fromClient("b", mcast("/2/3", "b", 1, "fine"))
	h.run()
	if got := b.multicastsReceived(); len(got) != 1 {
		t.Errorf("finer subscription broken after coarse withdrawal: %v", got)
	}
	// And the withdrawn coarse subscription no longer delivers siblings.
	b.received = nil
	h.fromClient("b", mcast("/2/4", "b", 2, "sibling"))
	h.run()
	if got := b.multicastsReceived(); len(got) != 0 {
		t.Errorf("withdrawn subscription still delivering: %v", got)
	}
}
