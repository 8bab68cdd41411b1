package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/wire"
)

func testBurst(n int, payload []byte) []*wire.Packet {
	pkts := make([]*wire.Packet, n)
	for i := range pkts {
		pkts[i] = &wire.Packet{
			Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
			Origin: "p", Seq: uint64(i + 1), Payload: payload,
		}
	}
	return pkts
}

// TestBurstRoundTrip pins the burst framing: WriteBurst's frame must come
// back from ReadBurst as the same packets in the same order, in one frame.
func TestBurstRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	sent := testBurst(5, []byte("move"))
	errc := make(chan error, 1)
	go func() { errc <- ca.WriteBurst(sent) }()
	got, err := cb.ReadBurst(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sent) {
		t.Fatalf("ReadBurst returned %d packets, want %d", len(got), len(sent))
	}
	for i := range sent {
		wb, _ := wire.Encode(sent[i]) //lint:allow errcheckedfaces fixture packets are known-valid
		gb, _ := wire.Encode(got[i])  //lint:allow errcheckedfaces a decode-side failure shows up as unequal bytes
		if !bytes.Equal(wb, gb) {
			t.Errorf("packet %d differs after round trip", i)
		}
	}
}

// rawFrame hand-builds one frame: the 4-byte big-endian length prefix, then
// body verbatim.
func rawFrame(body ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// captureConn is a net.Conn that only implements Write, keeping the last
// frame written (in a reused buffer, so steady-state writes do not allocate).
type captureConn struct {
	net.Conn
	wrote []byte
}

func (c *captureConn) Write(p []byte) (int, error) {
	c.wrote = append(c.wrote[:0], p...)
	return len(p), nil
}

// TestBurstReadsSinglePacketFrames pins interop: a single packet is a burst
// of one in both directions. WritePacket and a one-packet WriteBurst put the
// same bytes on the wire — the 4-byte length prefix followed by the packet's
// wire.Encode bytes, which is the frame every earlier peer wrote — and
// ReadBurst returns exactly that one packet.
func TestBurstReadsSinglePacketFrames(t *testing.T) {
	pkt := testBurst(1, []byte("x"))[0]
	enc, err := wire.Encode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	want := rawFrame(enc...)

	var single, burst captureConn
	if err := NewConn(&single).WritePacket(pkt); err != nil {
		t.Fatal(err)
	}
	if err := NewConn(&burst).WriteBurst([]*wire.Packet{pkt}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(single.wrote, want) {
		t.Errorf("WritePacket frame = %x, want %x", single.wrote, want)
	}
	if !bytes.Equal(burst.wrote, want) {
		t.Errorf("one-packet WriteBurst frame = %x, want %x", burst.wrote, want)
	}

	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	for _, write := range []func() error{
		func() error { return ca.WritePacket(pkt) },
		func() error { return ca.WriteBurst([]*wire.Packet{pkt}) },
	} {
		errc := make(chan error, 1)
		go func() { errc <- write() }()
		got, err := cb.ReadBurst(nil)
		if err != nil || len(got) != 1 || got[0].Seq != pkt.Seq {
			t.Fatalf("ReadBurst of single-packet frame: %v packets, err %v", len(got), err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWritePacketAllocFree pins the send budget: once the connection's write
// buffer has grown to the frame size, WritePacket allocates nothing — the
// burst of one it hands to the framing code stays on the stack.
func TestWritePacketAllocFree(t *testing.T) {
	pkt := testBurst(1, []byte("move"))[0]
	c := NewConn(&captureConn{})
	if err := c.WritePacket(pkt); err != nil { // warm wbuf
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.WritePacket(pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WritePacket steady state: %v allocs/op, want 0", allocs)
	}
}

// TestBurstSplitsAtMaxFrame pins the frame-size cap: a burst whose total
// exceeds MaxFrame is split into consecutive frames (one Write), and the
// reader reassembles it over successive ReadBurst calls without loss.
func TestBurstSplitsAtMaxFrame(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	// Three ~600 KB packets: > MaxFrame (1 MB) in total, so at least two
	// frames, with no single packet oversized.
	sent := testBurst(3, make([]byte, 600<<10))
	errc := make(chan error, 1)
	go func() { errc <- ca.WriteBurst(sent) }()
	var got []*wire.Packet
	for len(got) < len(sent) {
		var err error
		got, err = cb.ReadBurst(got)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sent) {
		t.Fatalf("got %d packets, want %d", len(got), len(sent))
	}
	for i := range sent {
		if got[i].Seq != sent[i].Seq {
			t.Errorf("packet %d: seq %d, want %d", i, got[i].Seq, sent[i].Seq)
		}
	}
}

// TestBurstRejectsOversizedPacket pins the error path: one packet that can
// never fit a frame fails the whole burst without writing anything.
func TestBurstRejectsOversizedPacket(t *testing.T) {
	a, _ := net.Pipe()
	ca := NewConn(a)
	defer ca.Close()
	pkts := testBurst(1, make([]byte, MaxFrame+1))
	if err := ca.WriteBurst(pkts); err == nil {
		t.Fatal("WriteBurst of oversized packet: want error")
	}
}

// TestWriteBurstEmpty pins the no-op: flushing an empty burst writes nothing
// and returns nil.
func TestWriteBurstEmpty(t *testing.T) {
	a, _ := net.Pipe()
	ca := NewConn(a)
	defer ca.Close()
	if err := ca.WriteBurst(nil); err != nil {
		t.Fatalf("WriteBurst(nil) = %v, want nil", err)
	}
}
