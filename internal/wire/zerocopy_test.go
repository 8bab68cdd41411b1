package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/icn-gaming/gcopss/internal/cd"
)

// TestSizeMatchesEncode pins the arithmetic Size to the encoder: for every
// valid packet the predicted length must equal the encoded length exactly,
// or the byte-budget accounting in hosts drifts from the wire.
func TestSizeMatchesEncode(t *testing.T) {
	f := func(q quickPacket) bool {
		b, err := Encode(&q.p)
		if err != nil {
			return false
		}
		return Size(&q.p) == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestAppendEncodeMatchesEncode pins the appending encoder to the allocating
// one, including when dst already holds a prefix that must be preserved.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	f := func(q quickPacket) bool {
		want, err := Encode(&q.p)
		if err != nil {
			return false
		}
		prefix := []byte{0xde, 0xad}
		got, err := AppendEncode(append([]byte(nil), prefix...), &q.p)
		if err != nil {
			return false
		}
		return bytes.Equal(got[:2], prefix) && bytes.Equal(got[2:], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAppendEncodeInvalid(t *testing.T) {
	if _, err := AppendEncode(nil, &Packet{}); err == nil {
		t.Fatal("AppendEncode of invalid packet: want error")
	}
}

// TestAppendEncodeReuseAllocFree locks the serialization budget: sizing a
// packet and encoding it into a buffer with sufficient capacity must not
// allocate at all.
func TestAppendEncodeReuseAllocFree(t *testing.T) {
	p := &Packet{
		Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
		Payload: make([]byte, 200), Origin: "player-1", Seq: 7, SentAt: 99,
		CDHashes: []uint64{1, 2, 3, 4, 5, 6},
	}
	buf := make([]byte, 0, Size(p))
	allocs := testing.AllocsPerRun(100, func() {
		if Size(p) != cap(buf) {
			t.Fatal("Size changed between calls")
		}
		out, err := AppendEncode(buf[:0], p)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	})
	if allocs != 0 {
		t.Errorf("AppendEncode into pre-sized buffer: %v allocs/op, want 0", allocs)
	}
}
