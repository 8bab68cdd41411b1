package wire

import (
	"bytes"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
)

// FuzzDecode feeds arbitrary bytes to the TLV decoder. The decoder must
// never panic, and any packet it accepts must survive an encode/decode
// round trip unchanged — otherwise two routers could disagree about what
// a forwarded frame means. The string table must be invisible: a long-lived
// Decoder, a fresh one and the table-less Decode agree on every input.
func FuzzDecode(f *testing.F) {
	seedPackets := []*Packet{
		{Type: TypeInterest, Name: "/content/map/v1"},
		{Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")}, Origin: "p1", Seq: 9, Payload: []byte("hello")},
		{Type: TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1/"), cd.MustParse("/2")}},
		{Type: TypeFIBAdd, Name: "/rp1", CDs: []cd.CD{cd.MustParse("/")}, Seq: 3, Origin: "R1"},
		{Type: TypeHandoff, Name: "/rpB", Origin: "/rpA", Seq: 2, CDs: []cd.CD{cd.MustParse("/2")}},
	}
	for _, p := range seedPackets {
		enc, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})

	var warmed Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		pkt, n, err := decodeAllWays(t, &warmed, data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		re, err := Encode(pkt)
		if err != nil {
			t.Fatalf("accepted packet does not re-encode: %+v: %v", pkt, err)
		}
		back, _, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded packet does not decode: %v", err)
		}
		if pkt.Type != back.Type || pkt.Name != back.Name || pkt.Origin != back.Origin ||
			pkt.Seq != back.Seq || !bytes.Equal(pkt.Payload, back.Payload) ||
			len(pkt.CDs) != len(back.CDs) || len(pkt.CDHashes) != len(back.CDHashes) {
			t.Fatalf("round trip changed packet:\n first %+v\nsecond %+v", pkt, back)
		}
		for i := range pkt.CDs {
			if pkt.CDs[i].Key() != back.CDs[i].Key() {
				t.Fatalf("CD %d changed: %q -> %q", i, pkt.CDs[i].Key(), back.CDs[i].Key())
			}
		}
	})
}
