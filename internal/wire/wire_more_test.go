package wire

import (
	"errors"
	"strings"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
)

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{
		TypeInterest:    "Interest",
		TypeData:        "Data",
		TypeSubscribe:   "Subscribe",
		TypeUnsubscribe: "Unsubscribe",
		TypeMulticast:   "Multicast",
		TypeFIBAdd:      "FIBAdd",
		TypeFIBRemove:   "FIBRemove",
		TypeJoin:        "Join",
		TypeConfirm:     "Confirm",
		TypeLeave:       "Leave",
		TypeHandoff:     "Handoff",
		TypePrune:       "Prune",
	}
	for typ, s := range want {
		if got := typ.String(); got != s {
			t.Errorf("%d.String() = %q, want %q", typ, got, s)
		}
	}
	if got := Type(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestIsNDN(t *testing.T) {
	if !TypeInterest.IsNDN() || !TypeData.IsNDN() {
		t.Error("Interest/Data must be NDN types")
	}
	for _, typ := range []Type{TypeSubscribe, TypeUnsubscribe, TypeMulticast, TypeFIBAdd, TypeJoin, TypePrune} {
		if typ.IsNDN() {
			t.Errorf("%v misclassified as NDN", typ)
		}
	}
}

func TestCDAccessorError(t *testing.T) {
	p := &Packet{Type: TypeInterest, Name: "/x"}
	if _, err := p.CD(); !errors.Is(err, ErrNoCD) {
		t.Errorf("CD() on empty packet: err = %v, want ErrNoCD", err)
	}
	q := &Packet{Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1")}}
	c, err := q.CD()
	if err != nil || c.Key() != "/1" {
		t.Errorf("CD() = %v, %v; want /1, nil", c, err)
	}
}

func TestCDHashesRoundTrip(t *testing.T) {
	p := &Packet{
		Type:     TypeMulticast,
		CDs:      []cd.CD{cd.MustParse("/1/2")},
		Payload:  []byte("x"),
		CDHashes: []uint64{1, 2, 3, 4, 5, 6},
	}
	enc, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.CDHashes) != 6 || got.CDHashes[0] != 1 || got.CDHashes[5] != 6 {
		t.Errorf("CDHashes = %v", got.CDHashes)
	}
}

func TestEncapsulateOversized(t *testing.T) {
	inner := &Packet{
		Type:    TypeMulticast,
		CDs:     []cd.CD{cd.MustParse("/1")},
		Payload: make([]byte, MaxPayload+10),
	}
	if err := Encapsulate("/rp/1", inner, new(Packet)); err == nil {
		t.Error("oversized encapsulation accepted")
	}
}

func TestFIBAddPrefixOnly(t *testing.T) {
	// Pure prefix announcements carry only a name.
	p := &Packet{Type: TypeFIBAdd, Name: "/snapshot", Seq: 7, Origin: "broker"}
	enc, err := Encode(p)
	if err != nil {
		t.Fatalf("prefix-only FIBAdd rejected: %v", err)
	}
	got, _, err := Decode(enc)
	if err != nil || got.Name != "/snapshot" || len(got.CDs) != 0 {
		t.Errorf("round trip = %+v, %v", got, err)
	}
	bad := &Packet{Type: TypeFIBAdd}
	if _, err := Encode(bad); err == nil {
		t.Error("empty FIBAdd accepted")
	}
}

func TestDecodeBadCDField(t *testing.T) {
	// Hand-craft a packet whose CD field is malformed ("a" without '/').
	good := &Packet{Type: TypeSubscribe, CDs: []cd.CD{cd.MustParse("/a")}}
	enc, err := Encode(good)
	if err != nil {
		t.Fatal(err)
	}
	// The encoding contains the CD key "/a"; corrupt the leading slash.
	idx := -1
	for i := 0; i+1 < len(enc); i++ {
		if enc[i] == '/' && enc[i+1] == 'a' {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("CD bytes not found")
	}
	enc[idx] = 'x'
	if _, _, err := Decode(enc); err == nil {
		t.Error("malformed CD field accepted")
	}
}
