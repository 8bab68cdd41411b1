// Package transport carries G-COPSS wire packets over TCP streams: a
// 4-byte big-endian length prefix frames each burst of back-to-back packet
// encodings, and a single packet travels as a burst of one. It also defines
// the hello handshake with which a connecting peer declares whether it is a
// router or an end host, so the accepting router can register the face with
// the right kind (Fig. 2's faces are exactly such stream attachments).
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/icn-gaming/gcopss/internal/wire"
)

// MaxFrame bounds a frame to keep a misbehaving peer from ballooning
// memory.
const MaxFrame = 1 << 20

// PeerKind distinguishes handshake roles.
type PeerKind int

// Peer kinds. Enum starts at 1 so the zero value is invalid.
const (
	// PeerRouter identifies another G-COPSS router.
	PeerRouter PeerKind = iota + 1
	// PeerClient identifies an end host (player or broker).
	PeerClient
)

// String implements fmt.Stringer.
func (k PeerKind) String() string {
	switch k {
	case PeerRouter:
		return "router"
	case PeerClient:
		return "client"
	default:
		return fmt.Sprintf("PeerKind(%d)", int(k))
	}
}

// helloName is the reserved content name of handshake packets.
const helloName = "/gcopss/hello"

// Conn frames wire packets over a stream. Writes are serialized by an
// internal mutex so concurrent writers cannot interleave frames.
type Conn struct {
	c    net.Conn
	wmu  sync.Mutex
	idle time.Duration // 0 = no idle read deadline

	// wbuf is the per-connection frame assembly buffer. It grows to the
	// largest frame sent and is reused for every subsequent write, so the
	// steady-state send path does not allocate.
	//
	//gcopss:guardedby wmu
	wbuf []byte

	// rbuf, rpos, rend and dec belong to the connection's single reader.
	// One Read fills rbuf with as many bytes as the socket holds, and
	// rbuf[rpos:rend] is what ReadBurst has not parsed yet; the decoder
	// remembers the origins and CD keys this peer keeps sending.
	rbuf       []byte
	rpos, rend int
	dec        wire.Decoder
}

// readBufSize is the size of a connection's read buffer: one Read takes up
// to this many bytes off the socket. Frames larger than it are read straight
// into their own body instead, so the buffer never grows to MaxFrame.
const readBufSize = 32 << 10

// NewConn wraps an established stream.
func NewConn(c net.Conn) *Conn { return &Conn{c: c} }

// SetIdleTimeout arms a per-frame read deadline: a ReadBurst that has to
// wait on the socket must receive the rest of its frame within d of starting
// to wait, or it fails with a timeout error. A frame that is already
// buffered whole needs no wait and no deadline; one that is partly buffered
// is covered. This is the defense against a peer that completes the hello
// and then stalls mid-frame — without it the reader goroutine blocks in Read
// forever and leaks. Zero disables the deadline.
func (c *Conn) SetIdleTimeout(d time.Duration) { c.idle = d }

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr exposes the peer address for logs.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }

// SetDeadline bounds the next read/write.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// WritePacket frames and sends one packet: a burst of one.
func (c *Conn) WritePacket(pkt *wire.Packet) error {
	one := [1]*wire.Packet{pkt}
	return c.WriteBurst(one[:])
}

// WriteBurst frames and sends a whole burst with a single Write: the packets
// are packed back-to-back (wire.AppendEncodeBurst) into one frame whose body
// is the concatenated encodings, so a flush costs one syscall however many
// packets it carries. Bursts larger than MaxFrame are split into consecutive
// frames inside the same Write; frame boundaries are burst boundaries for
// ReadBurst. Frames are assembled in the connection-owned write buffer under
// the write lock, so the steady-state send path neither allocates nor lets
// concurrent writers interleave their frames.
func (c *Conn) WriteBurst(pkts []*wire.Packet) error {
	if len(pkts) == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.wbuf[:0]
	for start := 0; start < len(pkts); {
		end, body := start, 0
		for end < len(pkts) {
			sz := wire.Size(pkts[end])
			if body > 0 && body+sz > MaxFrame {
				break
			}
			body += sz
			end++
		}
		if body > MaxFrame {
			c.wbuf = buf[:0]
			return fmt.Errorf("transport: frame too large: %d", body)
		}
		hdr := len(buf)
		buf = append(buf, 0, 0, 0, 0) // length prefix, patched below
		var err error
		buf, err = wire.AppendEncodeBurst(buf, pkts[start:end])
		if err != nil {
			c.wbuf = buf[:0]
			return fmt.Errorf("transport: encode: %w", err)
		}
		binary.BigEndian.PutUint32(buf[hdr:hdr+4], uint32(len(buf)-hdr-4))
		start = end
	}
	c.wbuf = buf[:0] // keep any growth for the next burst
	if _, err := c.c.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// ReadBurst reads one frame and decodes every packet in it, appending them to
// dst (which may be nil) and returning the extended slice. Bytes in the frame
// that do not decode as a packet fail the whole read, and then dst comes back
// without any of the frame's packets.
//
// Reads are buffered: one Read takes everything the socket holds, up to the
// connection's read buffer, and later calls parse frames already buffered
// without a syscall. Each frame body is still copied out into one fresh
// allocation that belongs to the packets decoded from it (their payloads are
// sub-slices of it; DESIGN.md §11 rule 4): it is never reused, so a caller
// may hold a burst's packets across later ReadBursts for as long as it likes.
// One reader at a time.
func (c *Conn) ReadBurst(dst []*wire.Packet) ([]*wire.Packet, error) {
	// Armed whenever this call must read the socket, which covers a frame
	// that is partly buffered; one buffered whole needs no deadline.
	if c.idle > 0 && !c.frameBuffered() {
		if err := c.c.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
			return dst, fmt.Errorf("transport: set idle deadline: %w", err)
		}
	}
	if err := c.fill(4); err != nil {
		return dst, fmt.Errorf("transport: read header: %w", err)
	}
	hdr := binary.BigEndian.Uint32(c.rbuf[c.rpos:])
	if hdr == 0 || hdr > MaxFrame {
		return dst, fmt.Errorf("transport: bad frame length %d", hdr)
	}
	n := int(hdr)
	c.rpos += 4
	body := make([]byte, n)
	if n <= len(c.rbuf) {
		if err := c.fill(n); err != nil {
			return dst, fmt.Errorf("transport: read body: %w", err)
		}
		c.rpos += copy(body, c.rbuf[c.rpos:c.rpos+n])
	} else {
		// Larger than the buffer: take what is buffered, read the rest
		// straight into the body.
		have := copy(body, c.rbuf[c.rpos:c.rend])
		c.rpos, c.rend = 0, 0
		_, err := io.ReadFull(c.c, body[have:])
		if err == io.EOF && have > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return dst, fmt.Errorf("transport: read body: %w", err)
		}
	}
	start := len(dst)
	for len(body) > 0 {
		pkt, consumed, err := c.dec.Decode(body)
		if err != nil {
			clear(dst[start:])
			return dst[:start], fmt.Errorf("transport: decode: %w", err)
		}
		body = body[consumed:]
		dst = append(dst, pkt)
	}
	return dst, nil
}

// fill reads until at least need unparsed bytes are buffered (need is at
// most the buffer size). Like io.ReadFull it reports io.EOF when the stream
// ends before any of the needed bytes, io.ErrUnexpectedEOF when it ends after
// some.
func (c *Conn) fill(need int) error {
	if c.rend-c.rpos >= need {
		return nil
	}
	if c.rbuf == nil {
		c.rbuf = make([]byte, readBufSize)
	}
	c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
	c.rpos = 0
	for c.rend < need {
		n, err := c.c.Read(c.rbuf[c.rend:])
		c.rend += n
		if err != nil && c.rend < need {
			if err == io.EOF && c.rend > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// frameBuffered reports whether a whole frame (or a header that ReadBurst
// will reject without reading further) is buffered, so that the next
// ReadBurst returns without a syscall.
func (c *Conn) frameBuffered() bool {
	avail := c.rend - c.rpos
	if avail < 4 {
		return false
	}
	n := binary.BigEndian.Uint32(c.rbuf[c.rpos:])
	return n == 0 || n > MaxFrame || int(n) <= avail-4
}

// SendHello announces this peer's kind and name.
func (c *Conn) SendHello(kind PeerKind, name string) error {
	return c.WritePacket(&wire.Packet{
		Type:    wire.TypeData,
		Name:    helloName,
		Origin:  name,
		Payload: []byte(kind.String()),
	})
}

// ReadHello consumes and validates the peer's handshake: exactly one frame.
// Bytes the peer pipelined behind it stay buffered for the next ReadBurst.
func (c *Conn) ReadHello(timeout time.Duration) (PeerKind, string, error) {
	if timeout > 0 {
		if err := c.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, "", fmt.Errorf("transport: set deadline: %w", err)
		}
		defer c.c.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	pkts, err := c.ReadBurst(nil)
	if err != nil {
		return 0, "", err
	}
	if len(pkts) != 1 {
		return 0, "", fmt.Errorf("transport: hello frame holds %d packets, want 1", len(pkts))
	}
	pkt := pkts[0]
	if pkt.Type != wire.TypeData || pkt.Name != helloName {
		return 0, "", fmt.Errorf("transport: expected hello, got %v %q", pkt.Type, pkt.Name)
	}
	var kind PeerKind
	switch string(pkt.Payload) {
	case "router":
		kind = PeerRouter
	case "client":
		kind = PeerClient
	default:
		return 0, "", fmt.Errorf("transport: unknown peer kind %q", pkt.Payload)
	}
	if pkt.Origin == "" {
		return 0, "", fmt.Errorf("transport: hello without a peer name")
	}
	return kind, pkt.Origin, nil
}

// Dial connects to a router, performs the client side of the handshake and
// returns the framed connection.
func Dial(addr string, kind PeerKind, name string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := NewConn(nc)
	if err := c.SendHello(kind, name); err != nil {
		nc.Close() //nolint:errcheck // already failing
		return nil, err
	}
	return c, nil
}

// DialRetry dials with bounded, deterministic exponential backoff: up to
// attempts tries, sleeping backoff, 2*backoff, 4*backoff ... between them
// (no jitter, so reconnect behaviour is reproducible in tests). stop, when
// non-nil, aborts the wait early.
func DialRetry(addr string, kind PeerKind, name string, timeout time.Duration,
	attempts int, backoff time.Duration, stop <-chan struct{}) (*Conn, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-time.After(backoff << uint(i-1)):
			case <-stop:
				return nil, fmt.Errorf("transport: dial %s aborted: %w", addr, lastErr)
			}
		}
		conn, err := Dial(addr, kind, name, timeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: dial %s: gave up after %d attempts: %w", addr, attempts, lastErr)
}
