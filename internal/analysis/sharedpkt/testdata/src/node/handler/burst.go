package handler

import (
	"internal/wire"
)

// Burst parameters ([]*wire.Packet) share every element with the caller; the
// per-element rules mirror the single-packet parameter rules.

func badBurstFieldWrite(pkts []*wire.Packet) {
	pkts[0].Name = "/rewritten" // want "write to field Name of an element of shared burst parameter pkts"
}

func badBurstIncrement(pkts []*wire.Packet) {
	for i := range pkts {
		pkts[i].Seq++ // want "write to field Seq of an element of shared burst parameter pkts"
	}
}

func badBurstElementFieldWrite(pkts []*wire.Packet) {
	pkts[1].CDs[0] = "/zone" // want "write into field CDs of an element of shared burst parameter pkts"
}

func badBurstOverwrite(pkts []*wire.Packet) {
	*pkts[0] = wire.Packet{} // want "overwrite through an element of shared burst parameter pkts"
}

func badBurstSlotWrite(pkts []*wire.Packet) {
	pkts[0] = &wire.Packet{} // want "write to an element slot of shared burst parameter pkts"
}

func badBurstClosureParam() func([]*wire.Packet) {
	return func(b []*wire.Packet) {
		b[0].CtlSeq = 7 // want "write to field CtlSeq of an element of shared burst parameter b"
	}
}

func goodBurstCopyOnWrite(pkts []*wire.Packet) *wire.Packet {
	cp := *pkts[0] // fresh object: private to this call
	cp.Seq++
	return &cp
}

func goodBurstSlab(pkts []*wire.Packet) []wire.Packet {
	slab := make([]wire.Packet, len(pkts))
	for i, p := range pkts {
		slab[i] = *p
		slab[i].Seq++ // slab cell is a local copy, not the shared element
	}
	return slab
}

func goodBurstLocalSlice() []*wire.Packet {
	out := make([]*wire.Packet, 0, 4)
	out = append(out, &wire.Packet{})
	out[0] = &wire.Packet{Name: "/fresh"} // builder owns the slice until it is handed off
	return out
}

func goodBurstAppend(pkts []*wire.Packet) []*wire.Packet {
	// Appending never writes an existing element; ReadBurst-style dst reuse.
	return append(pkts, &wire.Packet{})
}

func goodBurstRead(pkts []*wire.Packet) int {
	n := 0
	for _, p := range pkts {
		n += len(p.Payload)
	}
	return n
}
