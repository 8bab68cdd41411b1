package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/icn-gaming/gcopss/internal/cd"
)

func mustEncode(t *testing.T, p *Packet) []byte {
	t.Helper()
	b, err := Encode(p)
	if err != nil {
		t.Fatalf("Encode(%+v): %v", p, err)
	}
	return b
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		pkt  Packet
	}{
		{
			name: "interest",
			pkt:  Packet{Type: TypeInterest, Name: "/snapshot/1/3"},
		},
		{
			name: "data",
			pkt:  Packet{Type: TypeData, Name: "/snapshot/1/3", Payload: []byte("state")},
		},
		{
			name: "subscribe",
			pkt: Packet{Type: TypeSubscribe, CDs: []cd.CD{
				cd.MustParse("/"), cd.MustParse("/1/"), cd.MustParse("/1/2"),
			}},
		},
		{
			name: "unsubscribe",
			pkt:  Packet{Type: TypeUnsubscribe, CDs: []cd.CD{cd.MustParse("/1/2")}},
		},
		{
			name: "multicast",
			pkt: Packet{
				Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
				Payload: []byte("move north"), Origin: "player-17", Seq: 42, SentAt: 123456789,
			},
		},
		{
			name: "multicast with advertised window",
			pkt: Packet{
				Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/snapctl/1/2")},
				Payload: []byte("start"), Origin: "mover-3", AdvWin: 6,
			},
		},
		{
			name: "fib add multiple prefixes",
			pkt:  Packet{Type: TypeFIBAdd, Name: "/rp1", CDs: []cd.CD{cd.MustParse("/1"), cd.MustParse("/2")}},
		},
		{
			name: "fib remove",
			pkt:  Packet{Type: TypeFIBRemove, CDs: []cd.CD{cd.MustParse("/1")}},
		},
		{
			name: "join",
			pkt:  Packet{Type: TypeJoin, Name: "/rp2", CDs: []cd.CD{cd.MustParse("/1")}},
		},
		{
			name: "confirm",
			pkt:  Packet{Type: TypeConfirm, Name: "/rp2"},
		},
		{
			name: "leave",
			pkt:  Packet{Type: TypeLeave, Name: "/rp1", CDs: []cd.CD{cd.MustParse("/1")}},
		},
		{
			name: "handoff",
			pkt:  Packet{Type: TypeHandoff, Name: "/rp2", CDs: []cd.CD{cd.MustParse("/1/1"), cd.MustParse("/1/")}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := mustEncode(t, &tt.pkt)
			got, n, err := Decode(b)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(b) {
				t.Errorf("consumed %d of %d bytes", n, len(b))
			}
			if !reflect.DeepEqual(*got, tt.pkt) {
				t.Errorf("round trip:\n got  %+v\n want %+v", *got, tt.pkt)
			}
		})
	}
}

func TestDecodeStream(t *testing.T) {
	a := mustEncode(t, &Packet{Type: TypeInterest, Name: "/a"})
	b := mustEncode(t, &Packet{Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1")}, Payload: []byte("x")})
	stream := append(append([]byte{}, a...), b...)

	p1, n1, err := Decode(stream)
	if err != nil || p1.Type != TypeInterest {
		t.Fatalf("first decode: %v %v", p1, err)
	}
	p2, n2, err := Decode(stream[n1:])
	if err != nil || p2.Type != TypeMulticast {
		t.Fatalf("second decode: %v %v", p2, err)
	}
	if n1+n2 != len(stream) {
		t.Errorf("consumed %d, want %d", n1+n2, len(stream))
	}
}

// TestValidate checks that every malformed packet is refused, by Validate
// and by Encode, and that refusing one allocates nothing: Validate returns
// sentinels because it runs on the zero-allocation encode path.
func TestValidate(t *testing.T) {
	bad := []Packet{
		{Type: TypeInterest},  // no name
		{Type: TypeSubscribe}, // no CDs
		{Type: TypeMulticast}, // no CD
		{Type: TypeMulticast, CDs: []cd.CD{cd.Root(), cd.Root()}}, // two CDs
		{Type: TypeJoin},            // no RP name
		{Type: Type(99), Name: "x"}, // unknown type
		{},                          // zero value
	}
	for i, p := range bad {
		allocs := testing.AllocsPerRun(10, func() {
			if p.Validate() == nil {
				t.Fatalf("case %d: Validate(%+v) should fail", i, p)
			}
		})
		if allocs != 0 {
			t.Errorf("case %d: refusing allocates %v/op, want 0", i, allocs)
		}
		if _, err := Encode(&p); err == nil {
			t.Errorf("case %d: Encode should refuse invalid packet", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good := mustEncode(t, &Packet{Type: TypeData, Name: "/x", Payload: bytes.Repeat([]byte("p"), 100)})

	if _, _, err := Decode(good[:3]); !errors.Is(err, ErrShortPacket) {
		t.Errorf("short buffer: %v", err)
	}
	if _, _, err := Decode(good[:20]); !errors.Is(err, ErrShortPacket) {
		t.Errorf("truncated body: %v", err)
	}
	badMagic := append([]byte{}, good...)
	badMagic[0] = 0
	if _, _, err := Decode(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	badVer := append([]byte{}, good...)
	badVer[2] = 9
	if _, _, err := Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

// withField re-frames one encoded packet with field (tag, length, value
// bytes) appended to its body, as an older encoder would have sent it.
func withField(enc []byte, field ...byte) []byte {
	bodyLen, n := binary.Uvarint(enc[4:])
	body := append(enc[4+n:4+n+int(bodyLen):4+n+int(bodyLen)], field...)
	frame := binary.AppendUvarint(append([]byte(nil), enc[:4]...), uint64(len(body)))
	return append(frame, body...)
}

// withReservedHops appends a tag-7 field: the retired per-hop counter, a
// 4-byte big-endian value.
func withReservedHops(enc []byte) []byte { return withField(enc, 7, 4, 0, 0, 0, 3) }

// withReservedHashes appends a tag-8 field: the retired first-hop Bloom hash
// vector of a two-component CD, six big-endian words (two per prefix).
func withReservedHashes(enc []byte) []byte {
	field := []byte{8, 6 * 8}
	for w := uint64(1); w <= 6; w++ {
		field = binary.BigEndian.AppendUint64(field, w)
	}
	return withField(enc, field...)
}

// TestDecodeSkipsReservedHops: a frame from an encoder that still wrote the
// tag-7 hop counter decodes to the same packet as the frame without it.
func TestDecodeSkipsReservedHops(t *testing.T) {
	checkSkipsReserved(t, withReservedHops, 6)
}

// TestDecodeSkipsReservedHashes: a frame from an encoder that still wrote
// the tag-8 hash vector decodes to the same packet as the frame without it.
func TestDecodeSkipsReservedHashes(t *testing.T) {
	checkSkipsReserved(t, withReservedHashes, 2+6*8)
}

// checkSkipsReserved re-frames a Multicast with reframe, which must add
// extra bytes, and checks that it decodes whole to the packet the plain
// frame decodes to.
func checkSkipsReserved(t *testing.T, reframe func([]byte) []byte, extra int) {
	t.Helper()
	p := &Packet{
		Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
		Payload: []byte("move"), Origin: "p1", Seq: 7, SentAt: 99, TraceID: 5,
	}
	old := reframe(mustEncode(t, p))
	got, n, err := Decode(old)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(old) {
		t.Errorf("consumed %d of %d bytes", n, len(old))
	}
	want, _, err := Decode(mustEncode(t, p))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("old frame decoded to\n %+v\nwant\n %+v", *got, *want)
	}
	if len(old) != Size(p)+extra {
		t.Errorf("old frame is %d bytes, want Size+%d = %d", len(old), extra, Size(p)+extra)
	}
}

// TestEncodeIgnoresCDHashes: the deprecated CDHashes field never reaches the
// wire, so a packet that sets it encodes byte for byte like one that does
// not, and Size agrees.
func TestEncodeIgnoresCDHashes(t *testing.T) {
	p := &Packet{
		Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
		Payload: make([]byte, 32), Origin: "p1", Seq: 7, SentAt: 99,
	}
	hashed := *p
	hashed.CDHashes = []uint64{1, 2, 3, 4, 5, 6}
	plain, stamped := mustEncode(t, p), mustEncode(t, &hashed)
	if !bytes.Equal(plain, stamped) {
		t.Errorf("Encode with CDHashes = %x\nwithout = %x", stamped, plain)
	}
	if Size(&hashed) != len(plain) {
		t.Errorf("Size with CDHashes = %d, want %d", Size(&hashed), len(plain))
	}
}

func TestEncapsulateDecapsulate(t *testing.T) {
	inner := &Packet{
		Type:    TypeMulticast,
		CDs:     []cd.CD{cd.MustParse("/1/2")},
		Payload: []byte("shot fired"),
		Origin:  "soldier-3",
		Seq:     7,
		SentAt:  99,
	}
	outer := new(Packet)
	if err := Encapsulate("/rp1/1/2/soldier-3/1", inner, outer); err != nil {
		t.Fatalf("Encapsulate: %v", err)
	}
	if outer.Type != TypeInterest {
		t.Errorf("outer type = %v", outer.Type)
	}
	if outer.Name != "/rp1/1/2/soldier-3/1" {
		t.Errorf("outer name = %q", outer.Name)
	}
	if outer.SentAt != inner.SentAt {
		t.Errorf("outer SentAt = %d, want %d", outer.SentAt, inner.SentAt)
	}
	got, err := Decapsulate(outer)
	if err != nil {
		t.Fatalf("Decapsulate: %v", err)
	}
	if !reflect.DeepEqual(got, inner) {
		t.Errorf("decapsulated:\n got  %+v\n want %+v", got, inner)
	}

	kept := *outer
	if err := Encapsulate("/rp1/x", &Packet{Type: TypeData, Name: "/x"}, outer); err == nil {
		t.Error("Encapsulate should reject non-Multicast")
	}
	if !reflect.DeepEqual(*outer, kept) {
		t.Error("a failed Encapsulate overwrote the outer packet")
	}
	if _, err := Decapsulate(&Packet{Type: TypeData, Name: "/x"}); err == nil {
		t.Error("Decapsulate should reject non-Interest")
	}
	if _, err := Decapsulate(&Packet{Type: TypeInterest, Name: "/x", Payload: []byte("junk")}); err == nil {
		t.Error("Decapsulate should reject junk payloads")
	}
	// An Interest that encapsulates a non-Multicast must also be rejected.
	embedded := mustEncode(t, &Packet{Type: TypeData, Name: "/y"})
	if _, err := Decapsulate(&Packet{Type: TypeInterest, Name: "/x", Payload: embedded}); err == nil {
		t.Error("Decapsulate should reject embedded non-Multicast")
	}
}

func TestSize(t *testing.T) {
	p := &Packet{Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")}, Payload: make([]byte, 200)}
	if s := Size(p); s < 200 || s > 260 {
		t.Errorf("Size = %d, want ~200 plus small header", s)
	}
	if s := Size(&Packet{}); s != 0 {
		t.Errorf("Size of invalid packet = %d, want 0", s)
	}
}

type quickPacket struct{ p Packet }

// Generate implements quick.Generator producing valid random packets.
func (quickPacket) Generate(r *rand.Rand, _ int) reflect.Value {
	types := []Type{TypeInterest, TypeData, TypeSubscribe, TypeUnsubscribe, TypeMulticast, TypeFIBAdd, TypeFIBRemove, TypeJoin, TypeConfirm, TypeLeave, TypeHandoff}
	p := Packet{Type: types[r.Intn(len(types))]}
	randCD := func() cd.CD {
		depth := 1 + r.Intn(3)
		comps := make([]string, depth)
		for i := range comps {
			comps[i] = string(rune('0' + r.Intn(6)))
		}
		if r.Intn(4) == 0 {
			comps = append(comps, "")
		}
		return cd.MustNew(comps...)
	}
	switch p.Type {
	case TypeInterest, TypeData:
		p.Name = "/n/" + string(rune('a'+r.Intn(26)))
	case TypeJoin, TypeConfirm, TypeLeave, TypeHandoff:
		p.Name = "/rp" + string(rune('0'+r.Intn(10)))
	}
	switch p.Type {
	case TypeMulticast:
		p.CDs = []cd.CD{randCD()}
	case TypeSubscribe, TypeUnsubscribe, TypeFIBAdd, TypeFIBRemove, TypeHandoff:
		n := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			p.CDs = append(p.CDs, randCD())
		}
	}
	if r.Intn(2) == 0 {
		p.Payload = make([]byte, r.Intn(300))
		r.Read(p.Payload)
		if len(p.Payload) == 0 {
			p.Payload = nil
		}
	}
	if r.Intn(2) == 0 {
		p.Origin = "origin"
	}
	p.Seq = uint64(r.Intn(1000))
	p.SentAt = int64(r.Intn(100000))
	p.AdvWin = uint32(r.Intn(8))
	return reflect.ValueOf(quickPacket{p: p})
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(q quickPacket) bool {
		b, err := Encode(&q.p)
		if err != nil {
			return false
		}
		got, n, err := Decode(b)
		if err != nil || n != len(b) {
			return false
		}
		return reflect.DeepEqual(*got, q.p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Arbitrary bytes must produce an error or a valid packet, never a panic.
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		p, n, err := Decode(data)
		if err == nil {
			if p == nil || n <= 0 || n > len(data) {
				return false
			}
			if err := p.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeMulticast(b *testing.B) {
	p := &Packet{Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")}, Payload: make([]byte, 200), Origin: "p", Seq: 1, SentAt: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeMulticast(b *testing.B) {
	p := &Packet{Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")}, Payload: make([]byte, 200), Origin: "p", Seq: 1, SentAt: 1}
	enc, err := Encode(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
