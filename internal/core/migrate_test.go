package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// migrationTopology builds a richer network for handoff tests:
//
//	     R5            R6
//	      \            /
//	R1 --- R2 -------- R3
//	(rpA)              (new host)
//
// Subscribers sit on every router; rpA at R1 initially serves the whole
// world partition.
func migrationTopology(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t)
	for _, n := range []string{"R1", "R2", "R3", "R5", "R6"} {
		h.addRouter(n)
	}
	h.connect("R1", 1, "R2", 1)
	h.connect("R2", 2, "R3", 1)
	h.connect("R2", 3, "R5", 1)
	h.connect("R3", 3, "R6", 1)

	info := copss.RPInfo{
		Name:     "/rpA",
		Prefixes: copss.PartitionPrefixes([]string{"1", "2", "3", "4", "5"}),
		Seq:      1,
	}
	actions, err := becomeRP(h.routers["R1"], info)
	if err != nil {
		t.Fatal(err)
	}
	h.enqueueActions("R1", actions)
	h.run()
	return h
}

// doHandoff moves the given prefixes from /rpA (hosted at R1) to a new /rpB
// hosted at R3, over the physical path R1-R2-R3.
func doHandoff(t *testing.T, h *harness, move []cd.CD, seq uint64) {
	t.Helper()
	path := []PathHop{
		{Router: h.routers["R1"], FaceUp: 1},              // R1 → R2
		{Router: h.routers["R2"], FaceUp: 2, FaceDown: 1}, // R2: down→R1, up→R3
		{Router: h.routers["R3"], FaceDown: 1},            // R3 ← R2
	}
	actions, err := PrepareHandoff(time.Unix(0, 0), "/rpA", "/rpB", move, seq, path)
	if err != nil {
		t.Fatalf("PrepareHandoff: %v", err)
	}
	h.enqueueActions("R3", actions.FromNew)
	h.enqueueActions("R1", actions.FromOld)
}

func TestPrepareHandoffValidation(t *testing.T) {
	h := migrationTopology(t)
	r1 := h.routers["R1"]
	// Path too short.
	if _, err := PrepareHandoff(time.Unix(0, 0), "/rpA", "/rpB", []cd.CD{cd.MustParse("/2")}, 2,
		[]PathHop{{Router: r1}}); err == nil {
		t.Error("accepted single-hop path")
	}
	// Wrong old host.
	if _, err := PrepareHandoff(time.Unix(0, 0), "/rpA", "/rpB", []cd.CD{cd.MustParse("/2")}, 2,
		[]PathHop{{Router: h.routers["R2"]}, {Router: h.routers["R3"]}}); err == nil {
		t.Error("accepted non-host origin")
	}
	// Moving everything would leave the old RP empty.
	info, _ := r1.RPTable().Get("/rpA")
	if _, err := PrepareHandoff(time.Unix(0, 0), "/rpA", "/rpB", info.Prefixes, 2,
		[]PathHop{{Router: r1, FaceUp: 1}, {Router: h.routers["R2"], FaceDown: 1}}); err == nil {
		t.Error("accepted emptying handoff")
	}
}

func TestHandoffRedistributesAndRedirects(t *testing.T) {
	h := migrationTopology(t)
	subs := map[string]string{ // client → router
		"s1": "R1", "s2": "R3", "s3": "R5", "s4": "R6", "s5": "R2",
	}
	for name, router := range subs {
		h.attach(name, router, 20)
		h.fromClient(name, sub("/2")) // everyone watches region 2
	}
	h.attach("p", "R5", 21)
	h.fromClient("p", sub("/2"))
	h.run()

	// Phase 1: publish before the handoff.
	seq := uint64(0)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			h.fromClient("p", mcast("/2/3", "p", seq, fmt.Sprintf("u%d", seq)))
		}
	}
	publish(5)
	h.run()

	// Phase 2: handoff /2 (and region prefixes 4,5) to rpB at R3 with
	// publications in flight: enqueue publications BEFORE the flood actions
	// so they race the announcement through the network.
	publish(3)
	doHandoff(t, h, []cd.CD{cd.MustParse("/2"), cd.MustParse("/4"), cd.MustParse("/5")}, 2)
	publish(3)
	h.run()

	// Phase 3: steady state after migration.
	publish(5)
	h.run()

	// Every subscriber (including the publisher, who is subscribed) must
	// have seen every sequence number at least once: loss-freedom.
	for name := range subs {
		got := h.clients[name].uniqueSeqs()
		for s := uint64(1); s <= seq; s++ {
			key := fmt.Sprintf("p/%d", s)
			if got[key] == 0 {
				t.Errorf("%s missed update %d during migration", name, s)
			}
		}
	}

	// The new RP must now own /2: R1 redirected the stragglers, and fresh
	// publications are delivered by R3.
	if h.routers["R3"].Stats().RPDeliveries == 0 {
		t.Error("new RP delivered nothing")
	}
	if got, _, _ := h.routers["R5"].RPTable().CoverOf(cd.MustParse("/2/3")); got != "/rpB" {
		t.Errorf("publisher-side cover = %q, want /rpB", got)
	}

	// Steady state must not deliver duplicates: one more publication, each
	// subscriber sees it exactly once.
	for _, c := range h.clients {
		c.received = nil
	}
	publish(1)
	h.run()
	for name := range subs {
		got := h.clients[name].uniqueSeqs()
		if got[fmt.Sprintf("p/%d", seq)] != 1 {
			t.Errorf("%s: steady-state copies = %d, want 1", name, got[fmt.Sprintf("p/%d", seq)])
		}
	}

	// Kept prefixes still flow through rpA.
	for _, c := range h.clients {
		c.received = nil
	}
	h.fromClient("s1", sub("/1"))
	h.run()
	h.fromClient("p", mcast("/1/1", "p", 999, "kept"))
	h.run()
	if got := h.clients["s1"].uniqueSeqs()["p/999"]; got != 1 {
		t.Errorf("kept-prefix delivery = %d copies", got)
	}
}

func TestHandoffOldTreeDissolves(t *testing.T) {
	h := migrationTopology(t)
	h.attach("s2", "R3", 20)
	h.fromClient("s2", sub("/2"))
	h.attach("p", "R5", 21)
	h.run()

	doHandoff(t, h, []cd.CD{cd.MustParse("/2")}, 2)
	h.run()

	// After quiescence, a publication to /2 must not traverse R1 at all:
	// publisher R5 → R2 → R3 (rpB) → s2, with no seed-chain detour left.
	r1Before := h.routers["R1"].Stats().MulticastIn + h.routers["R1"].Stats().RPDeliveries
	h.fromClient("p", mcast("/2/2", "p", 1, "x"))
	h.run()
	r1After := h.routers["R1"].Stats().MulticastIn + h.routers["R1"].Stats().RPDeliveries
	if r1After != r1Before {
		t.Errorf("old RP host still on the /2 path: %d -> %d", r1Before, r1After)
	}
	if got := h.clients["s2"].uniqueSeqs()["p/1"]; got != 1 {
		t.Errorf("s2 copies = %d, want 1", got)
	}
	// The old host must no longer hold any ST state for the moved prefix.
	for _, c := range h.routers["R1"].ST().AllCDs() {
		if c.HasPrefix(cd.MustParse("/2")) {
			t.Errorf("stale ST entry %v at old host", c)
		}
	}
}

func TestSequentialHandoffs(t *testing.T) {
	// Two consecutive splits, as in the paper's auto-balancing run where
	// "the G-COPSS routers divided and moved the CDs to additional RPs
	// twice".
	h := migrationTopology(t)
	for i, router := range []string{"R1", "R2", "R3", "R5", "R6"} {
		name := fmt.Sprintf("s%d", i)
		h.attach(name, router, 30)
		h.fromClient(name, sub("")) // root subscribers see everything
	}
	h.attach("p", "R6", 31)
	h.run()

	seq := uint64(0)
	publishAll := func() {
		for _, c := range []string{"/1/1", "/2/2", "/3/3", "/", "/5/"} {
			seq++
			h.fromClient("p", mcast(c, "p", seq, c))
		}
	}
	publishAll()
	h.run()

	doHandoff(t, h, []cd.CD{cd.MustParse("/2"), cd.MustParse("/4")}, 2)
	publishAll()
	h.run()

	// Second split: move /4 from rpB (R3) to rpC (R6), path R3→R6.
	path := []PathHop{
		{Router: h.routers["R3"], FaceUp: 3},
		{Router: h.routers["R6"], FaceDown: 1},
	}
	actions, err := PrepareHandoff(time.Unix(0, 0), "/rpB", "/rpC", []cd.CD{cd.MustParse("/4")}, 3, path)
	if err != nil {
		t.Fatalf("second handoff: %v", err)
	}
	h.enqueueActions("R6", actions.FromNew)
	h.enqueueActions("R3", actions.FromOld)
	publishAll()
	h.run()
	publishAll()
	h.run()

	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("s%d", i)
		got := h.clients[name].uniqueSeqs()
		for s := uint64(1); s <= seq; s++ {
			if got[fmt.Sprintf("p/%d", s)] == 0 {
				t.Errorf("%s missed update %d", name, s)
			}
		}
	}

	// Final ownership: /4 at rpC, /2 at rpB, /1 /3 /5 / at rpA.
	r5 := h.routers["R5"]
	checks := map[string]string{"/4/1": "/rpC", "/2/1": "/rpB", "/1/1": "/rpA", "/": "/rpA"}
	for c, wantRP := range checks {
		if got, _, _ := r5.RPTable().CoverOf(cd.MustParse(c)); got != wantRP {
			t.Errorf("CoverOf(%s) = %q, want %q", c, got, wantRP)
		}
	}
}

func TestHandoffUnderContinuousLoad(t *testing.T) {
	// Stress: interleave individual packet deliveries with the handoff and
	// with ongoing publications from several publishers on random routers.
	h := migrationTopology(t)
	routers := []string{"R1", "R2", "R3", "R5", "R6"}
	for i, router := range routers {
		h.attach(fmt.Sprintf("s%d", i), router, 40)
		h.fromClient(fmt.Sprintf("s%d", i), sub("/2"))
	}
	pubs := []string{"p0", "p1", "p2"}
	for i, p := range pubs {
		h.attach(p, routers[(i*2)%len(routers)], 41)
	}
	h.run()

	rnd := rand.New(rand.NewSource(42))
	seqs := map[string]uint64{}
	publishOne := func() {
		p := pubs[rnd.Intn(len(pubs))]
		seqs[p]++
		h.fromClient(p, mcast("/2/4", p, seqs[p], "x"))
	}

	for i := 0; i < 20; i++ {
		publishOne()
	}
	// Drain partially, leaving packets in flight.
	for i := 0; i < 15; i++ {
		h.step()
	}
	doHandoff(t, h, []cd.CD{cd.MustParse("/2")}, 2)
	for i := 0; i < 20; i++ {
		publishOne()
		h.step()
		h.step()
	}
	h.run()
	for i := 0; i < 10; i++ {
		publishOne()
	}
	h.run()

	for i := range routers {
		name := fmt.Sprintf("s%d", i)
		got := h.clients[name].uniqueSeqs()
		for _, p := range pubs {
			for s := uint64(1); s <= seqs[p]; s++ {
				if got[fmt.Sprintf("%s/%d", p, s)] == 0 {
					t.Errorf("%s missed %s/%d", name, p, s)
				}
			}
		}
	}
}

func TestJoinRacesAnnouncement(t *testing.T) {
	// A Join that reaches a router before the Handoff announcement must be
	// parked and drained once the announcement arrives.
	r := NewRouter("X")
	r.AddFace(1, FaceRouter)
	r.AddFace(2, FaceRouter)
	joinPkt := &wire.Packet{Type: wire.TypeJoin, Name: "/rpZ", CDs: []cd.CD{cd.MustParse("/7")}}
	acts := emitted(func(s ndn.ActionSink) { r.handleJoin(time.Unix(0, 0), 1, joinPkt, s) })
	if acts != nil {
		t.Fatalf("join for unknown RP produced actions: %v", acts)
	}
	if len(r.pendingJoins["/rpZ"]) != 1 {
		t.Fatal("join not parked")
	}
	// Announcement arrives on face 2; the parked join must now produce a
	// Join forwarded upstream (X is not on the tree yet).
	annPkt := &wire.Packet{Type: wire.TypeFIBAdd, Name: "/rpZ", CDs: []cd.CD{cd.MustParse("/7")}, Seq: 5}
	acts = emitted(func(s ndn.ActionSink) { r.handleAnnouncement(time.Unix(0, 0), 2, annPkt, s) })
	foundJoin := false
	for _, a := range acts {
		if a.Packet.Type == wire.TypeJoin && a.Face == 2 {
			foundJoin = true
		}
	}
	if !foundJoin {
		t.Errorf("parked join not forwarded upstream: %v", acts)
	}
	if len(r.pendingJoins["/rpZ"]) != 0 {
		t.Error("pending joins not drained")
	}
}
