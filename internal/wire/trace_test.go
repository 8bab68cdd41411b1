package wire

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
)

// TestTraceIDRoundTrip pins the TLV encoding of the trace context: a nonzero
// TraceID must survive Encode/Decode, and Size must agree with the encoder.
func TestTraceIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 255, 1 << 20, 1<<63 + 17, ^uint64(0)} {
		p := Packet{
			Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
			Payload: []byte("move"), Origin: "p1", Seq: 7, SentAt: 99,
			TraceID: id,
		}
		b := mustEncode(t, &p)
		if got := Size(&p); got != len(b) {
			t.Errorf("TraceID=%d: Size()=%d, encoded %d bytes", id, got, len(b))
		}
		got, n, err := Decode(b)
		if err != nil {
			t.Fatalf("TraceID=%d: Decode: %v", id, err)
		}
		if n != len(b) {
			t.Errorf("TraceID=%d: consumed %d of %d bytes", id, n, len(b))
		}
		if !reflect.DeepEqual(*got, p) {
			t.Errorf("round trip:\n got  %+v\n want %+v", *got, p)
		}
	}
}

// TestTraceIDZeroOmitted is the zero-overhead contract: an untraced packet
// (TraceID == 0) must encode to the exact same bytes as before the field
// existed, so disabled tracing is invisible on the wire.
func TestTraceIDZeroOmitted(t *testing.T) {
	base := Packet{
		Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
		Payload: []byte("move"), Origin: "p1", Seq: 7, SentAt: 99,
	}
	traced := base
	traced.TraceID = 1
	bb := mustEncode(t, &base)
	tb := mustEncode(t, &traced)
	if bytes.Equal(bb, tb) {
		t.Fatal("traced and untraced packets encoded identically; TraceID not on the wire")
	}
	if len(tb) <= len(bb) {
		t.Fatalf("traced encoding (%d bytes) not longer than untraced (%d)", len(tb), len(bb))
	}
	// Decoding the untraced bytes must yield TraceID == 0.
	got, _, err := Decode(bb)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.TraceID != 0 {
		t.Errorf("untraced decode: TraceID = %d, want 0", got.TraceID)
	}
}

// TestTraceIDSurvivesForwardAndCopy: the trace context is an ordinary struct
// field. A router forwards the packet it received, so only the hop that
// changes another field copies (`cp := *pkt`), and the copy must carry the ID
// unchanged.
func TestTraceIDSurvivesForwardAndCopy(t *testing.T) {
	p := &Packet{
		Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
		Payload: []byte("x"), Origin: "p1", Seq: 3, TraceID: 0xdecaf,
	}
	cp := *p
	cp.CDHashes = []uint64{1}
	if cp.TraceID != p.TraceID {
		t.Errorf("COW copy: TraceID = %#x, want %#x", cp.TraceID, p.TraceID)
	}
}

// TestTraceIDSurvivesEncapsulate: the outer Interest built for RP delivery
// must carry the inner publication's trace context so intermediate routers
// can append hop records, and Decapsulate must recover it on the inner.
func TestTraceIDSurvivesEncapsulate(t *testing.T) {
	inner := &Packet{
		Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
		Payload: []byte("move"), Origin: "p1", Seq: 5, SentAt: 42, TraceID: 0xabc,
	}
	outer := new(Packet)
	if err := Encapsulate("/rp1/1/2/p1/1", inner, outer); err != nil {
		t.Fatalf("Encapsulate: %v", err)
	}
	if outer.TraceID != inner.TraceID {
		t.Errorf("outer TraceID = %#x, want %#x", outer.TraceID, inner.TraceID)
	}
	back, err := Decapsulate(outer)
	if err != nil {
		t.Fatalf("Decapsulate: %v", err)
	}
	if back.TraceID != inner.TraceID {
		t.Errorf("decapsulated TraceID = %#x, want %#x", back.TraceID, inner.TraceID)
	}
}
