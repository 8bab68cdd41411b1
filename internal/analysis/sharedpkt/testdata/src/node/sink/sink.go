// Package sink exercises the sink-aliasing rule: once an ndn.Action is
// passed to Emit, the packet it carries belongs to the sink.
package sink

import (
	"internal/ndn"
	"internal/wire"
)

func badPacketFieldAfterEmit(s ndn.ActionSink) {
	pkt := &wire.Packet{Name: "/a"}
	s.Emit(ndn.Action{Face: 1, Packet: pkt})
	pkt.Name = "/b" // want "mutation of packet pkt after Emit"
}

func badPacketIncrementAfterEmit(s ndn.ActionSink) {
	pkt := &wire.Packet{}
	s.Emit(ndn.Action{Face: 1, Packet: pkt})
	pkt.Seq++ // want "mutation of packet pkt after Emit"
}

func badAddressedLocalAfterEmit(s ndn.ActionSink, in *wire.Packet) {
	cp := *in
	s.Emit(ndn.Action{Face: 1, Packet: &cp})
	cp.CtlSeq = 7 // want "mutation of packet cp after Emit"
}

func badOverwriteAfterEmit(s ndn.ActionSink) {
	pkt := &wire.Packet{}
	s.Emit(ndn.Action{Face: 1, Packet: pkt})
	*pkt = wire.Packet{} // want "mutation of packet pkt after Emit"
}

func badElementAfterEmit(s ndn.ActionSink) {
	pkt := &wire.Packet{CDs: []string{"/1"}}
	s.Emit(ndn.Action{Face: 1, Packet: pkt})
	pkt.CDs[0] = "/2" // want "mutation of packet pkt after Emit"
}

func badPositionalLiteral(s ndn.ActionSink) {
	pkt := &wire.Packet{}
	s.Emit(ndn.Action{1, pkt})
	pkt.Name = "/x" // want "mutation of packet pkt after Emit"
}

func badActionPacketWrite(s ndn.ActionSink, pkt *wire.Packet) {
	a := ndn.Action{Face: 1, Packet: pkt}
	s.Emit(a)
	a.Packet.Seq++ // want "write through a.Packet after a was emitted"
}

func badActionPacketDeref(s ndn.ActionSink, pkt *wire.Packet) {
	a := ndn.Action{Face: 1, Packet: pkt}
	s.Emit(a)
	*a.Packet = wire.Packet{} // want "write through a.Packet after a was emitted"
}

func goodWriteBeforeEmit(s ndn.ActionSink, in *wire.Packet) {
	cp := *in
	cp.Name = "/rewritten" // copy-on-write happens before the handoff
	s.Emit(ndn.Action{Face: 1, Packet: &cp})
}

func goodRebindAfterEmit(s ndn.ActionSink, in *wire.Packet) {
	pkt := in
	s.Emit(ndn.Action{Face: 1, Packet: pkt})
	cp := *pkt
	pkt = &cp // fresh copy: the emitted packet is untouched
	pkt.Seq++
	s.Emit(ndn.Action{Face: 2, Packet: pkt})
}

func goodActionFaceWrite(s ndn.ActionSink, pkt *wire.Packet) {
	a := ndn.Action{Face: 1, Packet: pkt}
	s.Emit(a)
	a.Face = 2 // the action was copied into the sink; its Face is private
	s.Emit(a)
}

func goodActionPacketRebind(s ndn.ActionSink, pkt *wire.Packet) {
	a := ndn.Action{Face: 1, Packet: pkt}
	s.Emit(a)
	a.Packet = &wire.Packet{} // rebinding the field ends the aliasing
	a.Packet.Name = "/fresh"
	s.Emit(a)
}

func goodFanOutSharing(s ndn.ActionSink, pkt *wire.Packet) {
	// Re-emitting the same packet is the zero-copy fan-out — reads only.
	s.Emit(ndn.Action{Face: 1, Packet: pkt})
	s.Emit(ndn.Action{Face: 2, Packet: pkt})
}

func goodLoopFreshPacket(s ndn.ActionSink) {
	for i := 0; i < 4; i++ {
		pkt := &wire.Packet{}
		pkt.Seq = uint64(i) // builder owns it until the emit below
		s.Emit(ndn.Action{Face: 1, Packet: pkt})
	}
}

func goodClosureScoping(s ndn.ActionSink, in *wire.Packet) func() {
	pkt := in
	s.Emit(ndn.Action{Face: 1, Packet: pkt})
	// The closure body is checked independently: nothing was emitted within
	// it, and flow order between closure and emit is unknowable statically.
	return func() {
		q := &wire.Packet{}
		q.Name = "/closure-local"
		s.Emit(ndn.Action{Face: 1, Packet: q})
	}
}

func allowedAfterEmit(s ndn.ActionSink) {
	pkt := &wire.Packet{}
	s.Emit(ndn.Action{Face: 1, Packet: pkt})
	//lint:allow sharedpkt test fixture resets the packet after the sink drained
	pkt.Name = "/reset"
}
