package transport

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// The buffered read side over real sockets: one Read may carry many frames,
// a partial frame, or a frame larger than the connection's read buffer. These
// tests write the byte patterns that produce each case in a single Write.

// frames encodes each packet as a frame of its own, back to back.
func frames(t *testing.T, pkts ...*wire.Packet) []byte {
	t.Helper()
	var out []byte
	for _, p := range pkts {
		enc, err := wire.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rawFrame(enc...)...)
	}
	return out
}

// helloFrame is the frame SendHello writes for a client called name.
func helloFrame(t *testing.T, name string) []byte {
	t.Helper()
	var cc captureConn
	if err := NewConn(&cc).SendHello(PeerClient, name); err != nil {
		t.Fatal(err)
	}
	return cc.wrote
}

func subscribePkt() *wire.Packet {
	return &wire.Packet{Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1/2")}}
}

// startRP runs a silent daemon that is the RP for every CD, with the given
// idle timeout on its faces.
func startRP(t *testing.T, ctx context.Context, idle time.Duration) (*Daemon, string) {
	t.Helper()
	d := NewDaemon("R1")
	d.SetLogger(func(string, ...interface{}) {})
	d.SetIdleTimeout(idle)
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Run(ctx) //nolint:errcheck // cancelled at test end
	if err := d.BecomeRP(copss.RPInfo{Name: "/rp1", Prefixes: []cd.CD{cd.Root()}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	return d, addr.String()
}

// subscriber attaches a raw connection subscribed to /1/2 and waits until
// the daemon has installed the subscription.
func subscriber(t *testing.T, d *Daemon, addr string) *Conn {
	t.Helper()
	conn, err := Dial(addr, PeerClient, "sub", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() }) //nolint:errcheck // test teardown
	if err := conn.WritePacket(subscribePkt()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription", func() bool { return stLen(d) == 1 })
	return conn
}

// dialRaw opens a plain TCP connection to the daemon; the test writes the
// hello itself.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() }) //nolint:errcheck // test teardown
	return nc
}

// readFrame reads the subscriber's next frame, failing the test after 5 s.
func readFrame(t *testing.T, conn *Conn) []*wire.Packet {
	t.Helper()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	pkts, err := conn.ReadBurst(nil)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// TestOneWriteOfFramesIsOneBurst: N one-packet frames written with one Write
// reach the router as one HandleBurst, which the dispatcher turns into one
// N-packet frame to the subscriber (consecutive actions for one face flush
// together, and only within one HandleBurst).
func TestOneWriteOfFramesIsOneBurst(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d, addr := startRP(t, ctx, DefaultIdleTimeout)
	sub := subscriber(t, d, addr)

	const n = 10
	raw := append(helloFrame(t, "pub"), frames(t, testBurst(n, []byte("move"))...)...)
	if _, err := dialRaw(t, addr).Write(raw); err != nil {
		t.Fatal(err)
	}
	got := readFrame(t, sub)
	if len(got) != n {
		t.Fatalf("subscriber's first frame holds %d packets, want all %d in one", len(got), n)
	}
	for i, p := range got {
		if p.Seq != uint64(i+1) || p.Origin != "p" {
			t.Errorf("packet %d: origin %q seq %d, want p %d", i, p.Origin, p.Seq, i+1)
		}
	}
}

// TestHelloAndSubscribeInOneWrite: ReadHello consumes exactly the hello
// frame, and the Subscribe pipelined behind it in the same Write stays
// buffered for the face's reader.
func TestHelloAndSubscribeInOneWrite(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d, addr := startRP(t, ctx, DefaultIdleTimeout)
	if _, err := dialRaw(t, addr).Write(append(helloFrame(t, "eager"), frames(t, subscribePkt())...)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pipelined subscription", func() bool { return stLen(d) == 1 })
}

// TestGoodFrameThenGarbageInOneWrite: a frame that fails to decode ends the
// face, but only after the good frame that shared its read is delivered.
func TestGoodFrameThenGarbageInOneWrite(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d, addr := startRP(t, ctx, DefaultIdleTimeout)
	sub := subscriber(t, d, addr)

	raw := append(helloFrame(t, "pub"), frames(t, testBurst(1, []byte("good"))...)...)
	raw = append(raw, rawFrame(0xde, 0xad, 0xbe, 0xef)...)
	if _, err := dialRaw(t, addr).Write(raw); err != nil {
		t.Fatal(err)
	}
	got := readFrame(t, sub)
	if len(got) != 1 || string(got[0].Payload) != "good" {
		t.Fatalf("subscriber got %d packets (%+v), want the good one", len(got), got)
	}
	waitFor(t, "garbage face teardown", func() bool { return faceCount(d) == 1 })
}

// TestPartialFrameThenSilenceIsDropped: a whole frame plus half of the next
// arrive in one read; the whole frame is served, and the idle deadline —
// armed before the read that waits for the rest — drops the face.
func TestPartialFrameThenSilenceIsDropped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const idle = 500 * time.Millisecond
	d, addr := startRP(t, ctx, idle)

	raw := append(helloFrame(t, "stall"), frames(t, subscribePkt())...)
	next := frames(t, testBurst(1, []byte("never finished"))[0])
	raw = append(raw, next[:len(next)/2]...)
	start := time.Now()
	if _, err := dialRaw(t, addr).Write(raw); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription from the whole frame", func() bool { return stLen(d) == 1 })
	waitFor(t, "stalled face teardown", func() bool { return faceCount(d) == 0 })
	if waited := time.Since(start); waited < idle {
		t.Errorf("face dropped after %v, before the %v idle timeout", waited, idle)
	}
}

// TestLargeFrameOverTCP: a frame far larger than the read buffer is read
// straight into its own body, and the small frame behind it still parses.
func TestLargeFrameOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	big := testBurst(1, bytes.Repeat([]byte{0x5a}, 600<<10))
	small := testBurst(1, []byte("after"))
	errc := make(chan error, 1)
	go func() {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errc <- err
			return
		}
		defer nc.Close()
		w := NewConn(nc)
		if err := w.WriteBurst(big); err != nil {
			errc <- err
			return
		}
		errc <- w.WriteBurst(small)
	}()
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := NewConn(nc)
	for _, want := range [][]*wire.Packet{big, small} {
		got, err := r.ReadBurst(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBurst(got, want) {
			t.Fatalf("frame of %d-byte payload did not round-trip", len(want[0].Payload))
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(r.rbuf) != readBufSize {
		t.Errorf("read buffer is %d bytes after a 600 KB frame, want %d", len(r.rbuf), readBufSize)
	}
}

// TestClientReceiveAllocBudget pins Receive to ReadBurst's budget: a warm
// one-packet frame costs the frame body and the packet record, because the
// receive queue's backing array is reused frame after frame.
func TestClientReceiveAllocBudget(t *testing.T) {
	pkt := testBurst(1, make([]byte, 32))[0]
	enc, err := wire.Encode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{conn: NewConn(&replayConn{frame: rawFrame(enc...)})}
	if _, err := c.Receive(); err != nil { // warm the string table and queue
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Receive(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("Receive of a one-packet frame: %v allocs/op, want 2", allocs)
	}
}
