package wire

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/icn-gaming/gcopss/internal/cd"
)

// decodeAllWays decodes data with a long-lived (warmed) Decoder, a fresh one
// and the table-less Decode, fails the test unless the three agree on the
// error, the byte count and — deeply — the packet, and checks that a decoded
// payload cannot be appended into its frame. It returns the table-less result.
func decodeAllWays(t *testing.T, warmed *Decoder, data []byte) (*Packet, int, error) {
	t.Helper()
	want, wantN, wantErr := Decode(data)
	for name, d := range map[string]*Decoder{"warmed": warmed, "fresh": new(Decoder)} {
		got, n, err := d.Decode(data)
		if (err == nil) != (wantErr == nil) || n != wantN || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s Decoder disagrees with Decode on %x:\n got %+v, %d, %v\nwant %+v, %d, %v",
				name, data, got, n, err, want, wantN, wantErr)
		}
		if err == nil && cap(got.Payload) != len(got.Payload) {
			t.Fatalf("%s Decoder: payload len %d cap %d, want the capacity clipped", name, len(got.Payload), cap(got.Payload))
		}
	}
	if wantErr == nil && cap(want.Payload) != len(want.Payload) {
		t.Fatalf("Decode: payload len %d cap %d, want the capacity clipped", len(want.Payload), cap(want.Payload))
	}
	return want, wantN, wantErr
}

// TestDecodersAgree is the differential check of the string table: whatever
// the table holds, a packet decodes to the same value. Multicasts get hash
// vectors on both sides of the inline bound.
func TestDecodersAgree(t *testing.T) {
	var warmed Decoder
	rng := rand.New(rand.NewSource(1))
	f := func(q quickPacket) bool {
		if q.p.Type == TypeMulticast {
			q.p.CDHashes = make([]uint64, 1+rng.Intn(2*inlineHashes))
			for i := range q.p.CDHashes {
				q.p.CDHashes[i] = rng.Uint64()
			}
		}
		b := mustEncode(t, &q.p)
		got, n, err := decodeAllWays(t, &warmed, b)
		return err == nil && n == len(b) && reflect.DeepEqual(*got, q.p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecoderTableIsBounded drives far more distinct origins and CD keys
// through one Decoder than its table may hold: the table never exceeds its
// cap, every string still comes back right, and a string over the length cap
// is returned correctly without being kept.
func TestDecoderTableIsBounded(t *testing.T) {
	var d Decoder
	for i := 0; i < 10000; i++ {
		sent := &Packet{
			Type: TypeMulticast, CDs: []cd.CD{cd.MustNew("zone", fmt.Sprint(i))},
			Origin: fmt.Sprint("player-", i), Payload: []byte("x"),
		}
		got, _, err := d.Decode(mustEncode(t, sent))
		if err != nil {
			t.Fatal(err)
		}
		if got.Origin != sent.Origin || got.CDs[0] != sent.CDs[0] {
			t.Fatalf("packet %d: got origin %q CD %v, want %q %v", i, got.Origin, got.CDs[0], sent.Origin, sent.CDs[0])
		}
		if len(d.strs) > internMaxEntries {
			t.Fatalf("after %d packets the table holds %d strings, cap %d", i+1, len(d.strs), internMaxEntries)
		}
	}

	long := strings.Repeat("o", internMaxLen+1)
	got, _, err := d.Decode(mustEncode(t, &Packet{Type: TypeInterest, Name: "/n", Origin: long}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != long {
		t.Errorf("over-length origin came back as %q", got.Origin)
	}
	if _, kept := d.strs[long]; kept {
		t.Error("over-length origin was kept in the table")
	}
}

// TestDecodeAllocBudget pins what a packet costs a reader whose table has
// seen the peer's strings: one record for a first-hop-stamped Multicast (CD
// slot and hash vector inside it, payload borrowed from the frame), the
// record plus the never-interned Name for an Interest.
func TestDecodeAllocBudget(t *testing.T) {
	multicast := mustEncode(t, &Packet{
		Type: TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")}, Origin: "player-1",
		Seq: 7, SentAt: 99, Payload: make([]byte, 32), CDHashes: []uint64{1, 2, 3, 4, 5, 6},
	})
	interest := mustEncode(t, &Packet{
		Type: TypeInterest, Name: "/rp1/1/2/player-1/z", Payload: multicast, SentAt: 99,
	})
	for _, tc := range []struct {
		name string
		enc  []byte
		want float64
	}{
		{"hashed Multicast", multicast, 1},
		{"Interest", interest, 2},
	} {
		var d Decoder
		if _, _, err := d.Decode(tc.enc); err != nil { // warm the table
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := d.Decode(tc.enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("warmed Decoder, %s: %v allocs/op, want %v", tc.name, allocs, tc.want)
		}
	}
}
