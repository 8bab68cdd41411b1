package handler

import (
	"internal/wire"
)

func badFieldWrite(pkt *wire.Packet) {
	pkt.Name = "/rewritten" // want "write to field Name of shared packet parameter pkt"
}

func badIncrement(pkt *wire.Packet) {
	pkt.Seq++ // want "write to field Seq of shared packet parameter pkt"
}

func badCompound(pkt *wire.Packet) {
	pkt.CtlSeq += 1 // want "write to field CtlSeq of shared packet parameter pkt"
}

func badElementWrite(pkt *wire.Packet) {
	pkt.CDs[0] = "/zone" // want "write into field CDs of shared packet parameter pkt"
}

func badOverwrite(pkt *wire.Packet) {
	*pkt = wire.Packet{} // want "overwrite through shared packet parameter pkt"
}

func badClosureParam() func(*wire.Packet) {
	return func(p *wire.Packet) {
		p.Name = "x" // want "write to field Name of shared packet parameter p"
	}
}

func goodCopyOnWrite(pkt *wire.Packet) *wire.Packet {
	cp := *pkt
	cp.Name = "/rewritten" // fresh object: private to this call
	cp.Seq++
	return &cp
}

func goodPointerToLocal(pkt *wire.Packet) *wire.Packet {
	cp := *pkt
	snippet := &cp
	snippet.Payload = []byte("snippet") // points at the local copy, not the shared packet
	return snippet
}

func goodLocalPacket() *wire.Packet {
	p := &wire.Packet{}
	p.Name = "/fresh" // builder owns the packet until it is sent
	return p
}

func goodRead(pkt *wire.Packet) string {
	return pkt.Name
}

func goodForward(pkt *wire.Packet) *wire.Packet {
	return pkt // forwarding re-emits the received packet unchanged
}

func allowed(pkt *wire.Packet) {
	//lint:allow sharedpkt decoder refill, packet not yet shared
	pkt.Name = "/in-place"
}
