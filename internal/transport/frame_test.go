package transport

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// TestBurstOutlivesLaterReads pins the ownership rule ReadBurst's callers
// rely on (DESIGN.md §11 rule 4): a frame belongs to the packets decoded from
// it, so the first burst read from a connection still holds what was sent
// after any number of later reads on the same connection. It runs over a real
// socket pair and under -race, and is the test that must fail if frame
// buffers are ever reused.
func TestBurstOutlivesLaterReads(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const bursts, width = 32, 4
	sent := make([][]*wire.Packet, bursts)
	for b := range sent {
		for i := 0; i < width; i++ {
			seq := uint64(b*width + i + 1)
			sent[b] = append(sent[b], &wire.Packet{
				Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustNew("zone", fmt.Sprint(seq%5))},
				Origin: fmt.Sprint("player-", seq%3), Seq: seq,
				Payload:  bytes.Repeat([]byte{byte(seq)}, 48),
				CDHashes: []uint64{seq, seq + 1, seq + 2, seq + 3},
			})
		}
	}

	errc := make(chan error, 1)
	go func() {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errc <- err
			return
		}
		defer nc.Close()
		w := NewConn(nc)
		for _, burst := range sent {
			if err := w.WriteBurst(burst); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()

	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := NewConn(nc)
	first, err := r.ReadBurst(nil)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b < bursts; b++ {
		got, err := r.ReadBurst(nil)
		if err != nil {
			t.Fatalf("burst %d: %v", b, err)
		}
		if !sameBurst(got, sent[b]) {
			t.Fatalf("burst %d does not match what was sent", b)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !sameBurst(first, sent[0]) {
		t.Errorf("burst 1 changed after %d later reads:\n got %+v\nwant %+v", bursts-1, first, sent[0])
	}
}

func sameBurst(got, want []*wire.Packet) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

// replayConn is a net.Conn that only implements Read, serving the same frame
// over and over without allocating.
type replayConn struct {
	net.Conn
	frame []byte
	off   int
}

func (c *replayConn) Read(p []byte) (int, error) {
	n := copy(p, c.frame[c.off:])
	c.off = (c.off + n) % len(c.frame)
	return n, nil
}

// TestReadBurstAllocBudget pins the receive budget for a one-packet frame
// from a peer the connection has heard before: the frame body and the packet
// record, nothing else — no header array, no strings, no payload copy.
func TestReadBurstAllocBudget(t *testing.T) {
	pkt := testBurst(1, make([]byte, 32))[0]
	pkt.CDHashes = []uint64{1, 2, 3, 4, 5, 6}
	enc, err := wire.Encode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(&replayConn{frame: rawFrame(enc...)})
	dst, err := c.ReadBurst(nil) // warm the string table and dst
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if dst, err = c.ReadBurst(dst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("ReadBurst of a one-packet frame: %v allocs/op, want 2", allocs)
	}
}
