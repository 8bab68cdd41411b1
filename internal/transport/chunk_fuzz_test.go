package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// chunkConn is a net.Conn whose Reads hand out data in the chunk sizes a
// fuzzer chose (sizes[i] gives 1 + sizes[i]² bytes; the rest comes whole
// once sizes run out), then io.EOF. It counts its Reads.
type chunkConn struct {
	net.Conn
	data  []byte
	sizes []byte
	reads int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if len(c.sizes) > 0 {
		n = min(n, 1+int(c.sizes[0])*int(c.sizes[0]))
		c.sizes = c.sizes[1:]
	}
	n = copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// referenceRead is the one-frame-per-read parser the buffered ReadBurst must
// agree with: io.ReadFull of the length prefix, io.ReadFull of the body,
// decode every packet, and stop at the first error, dropping the packets of
// a frame that fails.
func referenceRead(data []byte) ([]*wire.Packet, error) {
	r := bytes.NewReader(data)
	var dec wire.Decoder
	var out []*wire.Packet
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return out, fmt.Errorf("transport: read header: %w", err)
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n == 0 || n > MaxFrame {
			return out, fmt.Errorf("transport: bad frame length %d", n)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return out, fmt.Errorf("transport: read body: %w", err)
		}
		var frame []*wire.Packet
		for len(body) > 0 {
			pkt, consumed, err := dec.Decode(body)
			if err != nil {
				return out, fmt.Errorf("transport: decode: %w", err)
			}
			body = body[consumed:]
			frame = append(frame, pkt)
		}
		out = append(out, frame...)
	}
}

// checkChunking reads data through a chunkConn cut at sizes and compares
// what ReadBurst returns with the reference: the same packets in the same
// order and the same first error. A frame that frameBuffered reports as
// buffered must also come back without a Read.
func checkChunking(t *testing.T, data, sizes []byte) {
	want, wantErr := referenceRead(data)
	cc := &chunkConn{data: data, sizes: sizes}
	c := NewConn(cc)
	var got []*wire.Packet
	var err error
	for err == nil {
		buffered, reads := c.frameBuffered(), cc.reads
		got, err = c.ReadBurst(got)
		if buffered && cc.reads != reads {
			t.Fatalf("ReadBurst read the socket for a frame frameBuffered reported buffered")
		}
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("first error %q, reference %q", err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d packets, reference %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("packet %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func chunkPub(t testing.TB, seq uint64, payload int) []byte {
	b, err := wire.Encode(&wire.Packet{
		Type: wire.TypeMulticast, CDs: []cd.CD{cd.MustParse("/1/2")},
		Origin: "p", Seq: seq, Payload: bytes.Repeat([]byte{byte(seq)}, payload),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var chunkings = [][]byte{nil, {0, 0, 0, 0, 0}, {3, 17, 200, 1}}

// FuzzReadBurstChunking splits arbitrary bytes at fuzzer-chosen Read
// boundaries; see checkChunking for what must hold.
func FuzzReadBurstChunking(f *testing.F) {
	two := rawFrame(append(chunkPub(f, 1, 8), chunkPub(f, 2, 8)...)...)
	seeds := [][]byte{
		append(rawFrame(chunkPub(f, 1, 8)...), two...),
		append(two, rawFrame(0xde, 0xad)...),
		rawFrame(append(chunkPub(f, 1, 8), 0xde, 0xad)...), // a good packet, then garbage, in one frame
		two[:len(two)-3],
		{0, 0, 0, 0},
		{0xff, 0xff, 0xff, 0xff, 1},
		{0, 0},
	}
	for _, s := range seeds {
		for _, sizes := range chunkings {
			f.Add(s, sizes)
		}
	}
	f.Fuzz(checkChunking)
}

// TestReadBurstChunkingLargeFrame runs checkChunking on frames larger than
// the read buffer, whole and cut short, which the fuzzer's small inputs
// seldom reach.
func TestReadBurstChunkingLargeFrame(t *testing.T) {
	data := append(rawFrame(chunkPub(t, 3, 40<<10)...), rawFrame(chunkPub(t, 4, 1)...)...)
	for _, cut := range []int{len(data), len(data) - 10, readBufSize + 4, readBufSize - 4, 10} {
		for _, sizes := range chunkings {
			checkChunking(t, data[:cut], sizes)
		}
	}
}
