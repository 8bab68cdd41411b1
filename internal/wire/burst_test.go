package wire

import (
	"bytes"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
)

func burstFixture() []*Packet {
	return []*Packet{
		{Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
			Payload: []byte("move-a"), Origin: "p1", Seq: 1, SentAt: 10},
		{Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
			Payload: []byte("move-b"), Origin: "p2", Seq: 2, SentAt: 11},
		{Type: TypeSubscribe, CDs: []cd.CD{cd.MustParse("/3")}},
		{Type: TypeAck, CtlSeq: 9},
	}
}

// TestAppendEncodeBurstMatchesSequential pins the burst packer to the
// per-packet encoder: the concatenation must be byte-identical to encoding
// each packet in order.
func TestAppendEncodeBurstMatchesSequential(t *testing.T) {
	pkts := burstFixture()
	var want []byte
	for _, p := range pkts {
		b, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	got, err := AppendEncodeBurst(nil, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("burst encoding differs from sequential: %d vs %d bytes", len(got), len(want))
	}
	// The concatenation must decode back to the same packets.
	rest := got
	for i, p := range pkts {
		dec, n, err := Decode(rest)
		if err != nil {
			t.Fatalf("decode packet %d: %v", i, err)
		}
		rest = rest[n:]
		if dec.Type != p.Type || dec.Origin != p.Origin || dec.Seq != p.Seq {
			t.Errorf("packet %d round-trip mismatch: got %+v", i, dec)
		}
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes after decoding the burst", len(rest))
	}
}

// TestAppendEncodeBurstPreservesPrefix pins the append contract: existing
// bytes in dst survive, as with AppendEncode.
func TestAppendEncodeBurstPreservesPrefix(t *testing.T) {
	pkts := burstFixture()
	prefix := []byte{0xde, 0xad}
	out, err := AppendEncodeBurst(append([]byte(nil), prefix...), pkts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:2], prefix) {
		t.Fatal("AppendEncodeBurst clobbered the dst prefix")
	}
	want, _ := AppendEncodeBurst(nil, pkts) //lint:allow errcheckedfaces same packets already encoded without error above
	if !bytes.Equal(out[2:], want) {
		t.Fatal("AppendEncodeBurst after prefix differs from fresh encoding")
	}
}

// TestAppendEncodeBurstInvalidLeavesDst pins the all-or-nothing contract:
// a burst containing any invalid packet writes nothing.
func TestAppendEncodeBurstInvalidLeavesDst(t *testing.T) {
	pkts := []*Packet{
		{Type: TypeAck, CtlSeq: 1},
		{}, // invalid
	}
	dst := append(make([]byte, 0, 64), 0xbe, 0xef)
	out, err := AppendEncodeBurst(dst, pkts)
	if err == nil {
		t.Fatal("AppendEncodeBurst with invalid packet: want error")
	}
	if len(out) != 2 || !bytes.Equal(out, []byte{0xbe, 0xef}) {
		t.Fatalf("dst modified on error: %x", out)
	}
}

// TestAppendEncodeBurstReuseAllocFree locks the burst serialization budget:
// packing a whole burst into a buffer with sufficient capacity must not
// allocate at all — this is the satellite's 0 allocs/op reuse requirement.
func TestAppendEncodeBurstReuseAllocFree(t *testing.T) {
	pkts := burstFixture()
	buf, err := AppendEncodeBurst(nil, pkts) // warm to full capacity
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		out, err := AppendEncodeBurst(buf[:0], pkts)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
	if allocs != 0 {
		t.Errorf("AppendEncodeBurst into pre-sized buffer: %v allocs/op, want 0", allocs)
	}
}

// TestAppendEncodeBurstGrowsOnce pins the single-grow behavior: starting from
// an empty buffer the packer allocates at most one slab for the whole burst.
func TestAppendEncodeBurstGrowsOnce(t *testing.T) {
	pkts := burstFixture()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendEncodeBurst(nil, pkts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("AppendEncodeBurst from nil dst: %v allocs/op, want <= 1", allocs)
	}
}
