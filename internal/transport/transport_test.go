package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/wire"
)

func TestFramingRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	want := &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{cd.MustParse("/1/2")},
		Origin:  "p1",
		Seq:     9,
		Payload: []byte("hello"),
	}
	done := make(chan error, 1)
	go func() { done <- ca.WritePacket(want) }()
	pkts, err := cb.ReadBurst(nil)
	if err != nil {
		t.Fatalf("ReadBurst: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WritePacket: %v", err)
	}
	if len(pkts) != 1 {
		t.Fatalf("WritePacket frame held %d packets, want 1", len(pkts))
	}
	if got := pkts[0]; got.Origin != "p1" || got.Seq != 9 || string(got.Payload) != "hello" {
		t.Errorf("round trip corrupted: %+v", got)
	}
}

func TestFramingRejectsInvalid(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	if err := ca.WritePacket(&wire.Packet{}); err == nil {
		t.Error("invalid packet written")
	}
	// Garbage frame length.
	go func() {
		a.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) //nolint:errcheck
		a.Close()                               //nolint:errcheck
	}()
	if _, err := cb.ReadBurst(nil); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestHelloHandshake(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	sent := make(chan error, 1)
	go func() { sent <- ca.SendHello(PeerClient, "alice") }()
	kind, name, err := cb.ReadHello(time.Second)
	if err != nil {
		t.Fatalf("ReadHello: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("SendHello: %v", err)
	}
	if kind != PeerClient || name != "alice" {
		t.Errorf("hello = %v %q", kind, name)
	}
}

func TestHelloRejectsNonHello(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	go func() {
		ca.WritePacket(&wire.Packet{Type: wire.TypeInterest, Name: "/x"}) //lint:allow errcheckedfaces peer rejects the non-hello; this side only provokes it
	}()
	if _, _, err := cb.ReadHello(time.Second); err == nil {
		t.Error("non-hello accepted")
	}
}

// TestHelloRejectsMalformedFrames: the hello arrives from outside the
// program, so ReadHello must refuse a frame that is anything but exactly one
// hello packet — a second packet riding along, or bytes after the packet.
func TestHelloRejectsMalformedFrames(t *testing.T) {
	hello := &wire.Packet{Type: wire.TypeData, Name: helloName, Origin: "alice", Payload: []byte("client")}
	enc, err := wire.Encode(hello)
	if err != nil {
		t.Fatal(err)
	}
	readHello := func(raw []byte) (PeerKind, string, error) {
		a, b := net.Pipe()
		defer b.Close() //nolint:errcheck
		go func() {
			a.Write(raw) //nolint:errcheck // the reader's verdict is the assertion
			a.Close()    //nolint:errcheck
		}()
		return NewConn(b).ReadHello(time.Second)
	}
	two := append(append([]byte(nil), enc...), enc...)
	trailing := append(append([]byte(nil), enc...), 0xde, 0xad)
	if _, _, err := readHello(rawFrame(two...)); err == nil {
		t.Error("two-packet hello frame accepted")
	}
	if _, _, err := readHello(rawFrame(trailing...)); err == nil {
		t.Error("hello frame with trailing bytes accepted")
	}
	// The well-formed frame built the same way is accepted, so the two above
	// fail for the reason they claim.
	if kind, name, err := readHello(rawFrame(enc...)); err != nil || kind != PeerClient || name != "alice" {
		t.Errorf("hand-framed hello = %v %q, err %v", kind, name, err)
	}
}

// startDaemon runs a silent daemon on a loopback listener.
func startDaemon(t *testing.T, ctx context.Context, name string) (*Daemon, string) {
	t.Helper()
	d := NewDaemon(name)
	d.SetLogger(func(string, ...interface{}) {})
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Run(ctx) //nolint:errcheck // cancelled at test end
	return d, addr.String()
}

// Readiness probes for waitFor: each reads router state on the daemon's event
// loop, so a test proceeds when the attachment, flood or subscription it
// depends on has landed, however long the host took.

func routerFaces(d *Daemon) int {
	var n int
	d.Inspect(func(r *core.Router) { n = len(r.Faces()) })
	return n
}

func stLen(d *Daemon) int {
	var n int
	d.Inspect(func(r *core.Router) { n = r.ST().Len() })
	return n
}

func knowsRP(d *Daemon, name string) bool {
	var ok bool
	d.Inspect(func(r *core.Router) { _, ok = r.RPTable().Get(name) })
	return ok
}

// linkUp waits until both ends of a router-router link registered the face.
func linkUp(t *testing.T, a, b *Daemon) {
	t.Helper()
	waitFor(t, "router link attachment", func() bool { return routerFaces(a) >= 1 && routerFaces(b) >= 1 })
}

func TestDaemonEndToEndPubSub(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two routers: R1 (RP) ← R2; a subscriber on R2 and a publisher on R1.
	d1, addr1 := startDaemon(t, ctx, "R1")
	d2, addr2 := startDaemon(t, ctx, "R2")
	if err := d2.ConnectRouter(addr1); err != nil {
		t.Fatal(err)
	}
	linkUp(t, d1, d2)

	info := copss.RPInfo{
		Name:     "/rp1",
		Prefixes: []cd.CD{cd.MustNew(""), cd.MustNew("1"), cd.MustNew("2")},
		Seq:      1,
	}
	if err := d1.BecomeRP(info); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "announcement flood", func() bool { return knowsRP(d2, "/rp1") })

	sub, err := NewClient("soldier", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := sub.Subscribe(cd.MustParse("/1/2"), cd.MustParse("/1/"), cd.MustParse("/")); err != nil {
		t.Fatal(err)
	}

	pub, err := NewClient("plane", addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	// R2 holds the three subscriptions and has propagated them to the RP.
	waitFor(t, "subscription propagation", func() bool { return stLen(d2) == 3 && stLen(d1) == 3 })

	if err := pub.Publish(cd.MustParse("/1/"), 1, []byte("flyover")); err != nil {
		t.Fatal(err)
	}

	type rx struct {
		pkt *wire.Packet
		err error
	}
	rxc := make(chan rx, 1)
	go func() {
		p, err := sub.Receive()
		rxc <- rx{p, err}
	}()
	select {
	case got := <-rxc:
		if got.err != nil {
			t.Fatalf("Receive: %v", got.err)
		}
		if got.pkt.Type != wire.TypeMulticast || string(got.pkt.Payload) != "flyover" {
			t.Errorf("received %+v", got.pkt)
		}
		if got.pkt.Origin != "plane" {
			t.Errorf("origin = %q", got.pkt.Origin)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("update never delivered over TCP")
	}

	// A publication outside the subscription must NOT be delivered: publish
	// to /2/9 and then to /1/2; the next received packet must be the latter.
	if err := pub.Publish(cd.MustParse("/2/9"), 2, []byte("invisible")); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish(cd.MustParse("/1/2"), 3, []byte("visible")); err != nil {
		t.Fatal(err)
	}
	go func() {
		p, err := sub.Receive()
		rxc <- rx{p, err}
	}()
	select {
	case got := <-rxc:
		if got.err != nil {
			t.Fatalf("Receive: %v", got.err)
		}
		if string(got.pkt.Payload) != "visible" {
			t.Errorf("filtering failed: got %q", got.pkt.Payload)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("second update never delivered")
	}
}

func TestDaemonNDNQueryAcrossRouters(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d1, addr1 := startDaemon(t, ctx, "R1")
	d2, addr2 := startDaemon(t, ctx, "R2")
	if err := d2.ConnectRouter(addr1); err != nil {
		t.Fatal(err)
	}
	linkUp(t, d1, d2)

	// Producer attaches to R1 and registers a FIB route for its prefix on
	// both routers (face 1 on R2 is its link to R1; the producer's face on
	// R1 is the next one the daemon allocates — discover it by attaching
	// first and then wiring the route via the router handle).
	producer, err := NewClient("producer", addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	waitFor(t, "producer attach", func() bool { return routerFaces(d1) == 2 })
	// The producer is the second face of R1 (after R2's link). FIB edits on
	// a running daemon go through Inspect.
	d1.Inspect(func(r *core.Router) { r.NDN().FIB().Add("/content", 2) })
	d2.Inspect(func(r *core.Router) { r.NDN().FIB().Add("/content", 1) })

	go func() {
		for {
			pkt, err := producer.Receive()
			if err != nil {
				return
			}
			if pkt.Type == wire.TypeInterest {
				producer.Send(&wire.Packet{ //lint:allow errcheckedfaces test producer: a torn-down face ends the loop via Receive
					Type:    wire.TypeData,
					Name:    pkt.Name,
					Payload: []byte("served:" + pkt.Name),
				})
			}
		}
	}()

	consumer, err := NewClient("consumer", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()
	if err := consumer.Query("/content/map/v1"); err != nil {
		t.Fatal(err)
	}
	type rx struct {
		pkt *wire.Packet
		err error
	}
	rxc := make(chan rx, 1)
	go func() {
		p, err := consumer.Receive()
		rxc <- rx{p, err}
	}()
	select {
	case got := <-rxc:
		if got.err != nil {
			t.Fatalf("Receive: %v", got.err)
		}
		if got.pkt.Type != wire.TypeData || string(got.pkt.Payload) != "served:/content/map/v1" {
			t.Errorf("got %+v", got.pkt)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("NDN data never returned")
	}
}

func TestPeerKindString(t *testing.T) {
	if PeerRouter.String() != "router" || PeerClient.String() != "client" {
		t.Error("kind strings wrong")
	}
	if PeerKind(9).String() == "" {
		t.Error("invalid kind should render")
	}
}
