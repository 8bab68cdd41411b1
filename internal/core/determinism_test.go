package core

import (
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// TestFloodExceptOrderIsSorted pins the determinism contract of floodExcept:
// actions come out in ascending face order whatever the registration order,
// and the excepted face and non-router faces are skipped.
func TestFloodExceptOrderIsSorted(t *testing.T) {
	// Registration order is deliberately scrambled.
	ids := []ndn.FaceID{17, 3, 40, 9, 1, 25, 12, 38, 7, 21,
		5, 33, 14, 28, 2, 19, 36, 10, 23, 31}
	pkt := &wire.Packet{Type: wire.TypeFIBAdd, Name: "/rp", Seq: 1, Origin: "X"}
	r := NewRouter("X")
	for _, id := range ids {
		r.AddFace(id, FaceRouter)
	}
	r.AddFace(99, FaceClient) // clients never receive floods
	acts := emitted(func(s ndn.ActionSink) { r.floodExcept(9, pkt, s) })
	if len(acts) != len(ids)-1 {
		t.Fatalf("%d actions, want %d", len(acts), len(ids)-1)
	}
	prev := ndn.FaceID(-1)
	for i, a := range acts {
		if a.Face == 9 || a.Face == 99 {
			t.Fatalf("flood reached excluded face %d", a.Face)
		}
		if a.Face <= prev {
			t.Fatalf("faces not ascending at %d: %v then %v", i, prev, a.Face)
		}
		prev = a.Face
	}
}

// TestFlushLeavesOrderIsSorted pins the determinism contract of flushLeaves:
// when one flush marker releases several grafts, the Leaves are emitted in
// sorted RP-name order, not graft-map iteration order.
func TestFlushLeavesOrderIsSorted(t *testing.T) {
	names := []string{"/rp/echo", "/rp/alpha", "/rp/delta", "/rp/charlie", "/rp/bravo"}
	marker := &wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1")},
		Origin: FlushOrigin, Name: flushMarkerName("X"),
	}
	for trial := 0; trial < 20; trial++ {
		r := NewRouter("X")
		r.AddFace(1, FaceRouter)
		for _, name := range names {
			r.grafts[name] = &graft{
				confirmed:    true,
				hasOld:       true,
				oldFace:      1,
				oldRP:        "/old" + name,
				pendingLeave: cd.NewSet(cd.MustParse("/1")),
			}
		}
		acts := emitted(func(s ndn.ActionSink) { r.flushLeaves(time.Unix(0, 0), 1, marker, s) })
		if len(acts) != len(names) {
			t.Fatalf("trial %d: %d leaves, want %d", trial, len(acts), len(names))
		}
		prev := ""
		for i, a := range acts {
			if a.Packet.Type != wire.TypeLeave {
				t.Fatalf("trial %d: action %d is %v, want Leave", trial, i, a.Packet.Type)
			}
			if a.Packet.Name <= prev {
				t.Fatalf("trial %d: leaves not sorted at %d: %q then %q",
					trial, i, prev, a.Packet.Name)
			}
			prev = a.Packet.Name
		}
	}
}

// TestConfirmGraftOrderIsSorted pins the determinism contract of
// confirmGraft: the Confirms released to waiting joiners go out in
// ascending face order, not waiting-map iteration order.
func TestConfirmGraftOrderIsSorted(t *testing.T) {
	ids := []ndn.FaceID{17, 3, 40, 9, 1, 25, 12, 38, 7, 21}
	for trial := 0; trial < 20; trial++ {
		r := NewRouter("X")
		g := &graft{waiting: make(map[ndn.FaceID]*cd.Set)}
		for _, id := range ids {
			g.waiting[id] = cd.NewSet(cd.MustParse("/1"))
		}
		r.grafts["/rp"] = g
		acts := emitted(func(s ndn.ActionSink) { r.confirmGraft("/rp", s) })
		if len(acts) != len(ids) {
			t.Fatalf("trial %d: %d confirms, want %d", trial, len(acts), len(ids))
		}
		prev := ndn.FaceID(-1)
		for i, a := range acts {
			if a.Packet.Type != wire.TypeConfirm {
				t.Fatalf("trial %d: action %d is %v, want Confirm", trial, i, a.Packet.Type)
			}
			if a.Face <= prev {
				t.Fatalf("trial %d: confirms not ascending at %d: %v then %v",
					trial, i, prev, a.Face)
			}
			prev = a.Face
		}
	}
}

// TestTickToRetransmitOrderIsSorted pins the determinism contract of TickTo:
// expired entries are retransmitted in (face, seq) order. The packets are
// stamped through the relSink round-robin over faces registered out of
// order, so neither registration nor stamp order is the (face, seq) order.
func TestTickToRetransmitOrderIsSorted(t *testing.T) {
	faces := []ndn.FaceID{17, 3, 40, 9}
	const perFace = 3
	epoch := time.Unix(0, 0)
	r := NewRouter("X")
	for _, f := range faces {
		r.AddFace(f, FaceRouter)
	}
	rs := &relSink{r: r, now: epoch, dst: discard}
	for i := 0; i < perFace; i++ {
		for _, f := range faces {
			rs.Emit(ndn.Action{Face: f, Packet: &wire.Packet{Type: wire.TypeFIBAdd, Name: "/rp"}})
		}
	}
	acts := emitted(func(s ndn.ActionSink) { r.TickTo(epoch.Add(time.Second), s) })
	if len(acts) != len(faces)*perFace {
		t.Fatalf("%d retransmissions, want %d", len(acts), len(faces)*perFace)
	}
	for i := 1; i < len(acts); i++ {
		p, a := acts[i-1], acts[i]
		if a.Face < p.Face || (a.Face == p.Face && a.Packet.CtlSeq <= p.Packet.CtlSeq) {
			t.Fatalf("retransmissions not in (face, seq) order at %d: (%v, %d) then (%v, %d)",
				i, p.Face, p.Packet.CtlSeq, a.Face, a.Packet.CtlSeq)
		}
	}
}
