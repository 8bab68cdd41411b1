package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/faultnet"
)

func TestClientDisconnectDropsFaceAndSubscriptions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d, addr := startDaemon(t, ctx, "R1")

	c, err := NewClient("ghost", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unsubscribe(cd.MustParse("/1")); err != nil { // exercise Unsubscribe
		t.Fatal(err)
	}
	if err := c.Subscribe(cd.MustParse("/1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "subscription", func() bool { return stLen(d) == 1 })
	if c.Name() != "ghost" {
		t.Errorf("Name = %q", c.Name())
	}
	c.Close() //nolint:errcheck
	waitFor(t, "face and subscriptions cleaned after disconnect", func() bool {
		return stLen(d) == 0 && routerFaces(d) == 0
	})
}

func TestDialFailures(t *testing.T) {
	// Nothing listening.
	if _, err := Dial("127.0.0.1:1", PeerClient, "x", 200*time.Millisecond); err == nil {
		t.Error("dial to dead port succeeded")
	}
}

func TestConnAccessors(t *testing.T) {
	a, b := net.Pipe()
	ca := NewConn(a)
	defer ca.Close()
	defer b.Close()
	if ca.RemoteAddr() == nil {
		t.Error("RemoteAddr nil")
	}
	if err := ca.SetDeadline(time.Now().Add(time.Second)); err != nil {
		t.Errorf("SetDeadline: %v", err)
	}
}

func TestConnectRouterFailure(t *testing.T) {
	d := NewDaemon("lonely")
	d.SetLogger(func(string, ...interface{}) {})
	if err := d.ConnectRouter("127.0.0.1:1"); err == nil {
		t.Error("ConnectRouter to dead port succeeded")
	}
}

// TestControlCallsReturnAfterShutdown: once Run has returned nothing drains
// the event queue, so Inspect, BecomeRP and ConnectRouter must notice the
// shutdown instead of parking on it forever.
func TestControlCallsReturnAfterShutdown(t *testing.T) {
	peerCtx, stopPeer := context.WithCancel(context.Background())
	defer stopPeer()
	_, peerAddr := startDaemon(t, peerCtx, "peer") // a live target to dial

	d := NewDaemon("stopped")
	d.SetLogger(func(string, ...interface{}) {})
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan struct{})
	go func() {
		d.Run(ctx) //nolint:errcheck // cancelled below
		close(exited)
	}()
	d.Inspect(func(*core.Router) {}) // the loop is up
	cancel()
	<-exited

	within := func(name string, call func()) {
		t.Helper()
		returned := make(chan struct{})
		go func() {
			call()
			close(returned)
		}()
		select {
		case <-returned:
		case <-time.After(time.Second):
			t.Fatalf("%s still blocked 1 s after Run returned", name)
		}
	}
	// Repeated, because a send racing the shutdown signal used to win a
	// buffer slot about half the time.
	for i := 0; i < 20; i++ {
		within("Inspect", func() {
			d.Inspect(func(*core.Router) { t.Error("Inspect ran fn with no event loop") })
		})
		within("BecomeRP", func() {
			if err := d.BecomeRP(copss.RPInfo{Name: "/rp", Prefixes: []cd.CD{cd.MustNew("1")}, Seq: 1}); err == nil {
				t.Error("BecomeRP succeeded on a stopped daemon")
			}
		})
		within("ConnectRouter", func() {
			if err := d.ConnectRouter(peerAddr); err == nil {
				t.Error("ConnectRouter succeeded on a stopped daemon")
			}
		})
	}
}

func TestDaemonRejectsBadHandshake(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, addr := startDaemon(t, ctx, "R1")

	// A raw TCP connection that never sends a hello is rejected after the
	// handshake timeout; a well-formed client attached later still works.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	c, err := NewClient("ok", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Subscribe(cd.MustParse("/2")); err != nil {
		t.Fatal(err)
	}
}

// TestBecomeRPAnnouncementRetransmitted: the first hop of a daemon's RP
// announcement flood is ARQ-registered, so a neighbour behind a link that
// eats every control packet for the first 300 ms still learns the RP once
// the link heals and the daemon's ticks retransmit it.
func TestBecomeRPAnnouncementRetransmitted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec, err := faultnet.ParseSpec("only=ctl,part=0s..300ms")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.New(spec, 1)
	a := NewDaemon("A")
	a.SetLogger(func(string, ...interface{}) {})
	a.SetFaults(in)
	addrA, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go a.Run(ctx) //nolint:errcheck // cancelled at test end
	b, _ := startDaemon(t, ctx, "B")
	if err := b.ConnectRouter(addrA.String()); err != nil {
		t.Fatal(err)
	}
	linkUp(t, a, b)

	in.SetEpoch(time.Now())
	if err := a.BecomeRP(copss.RPInfo{Name: "/rpA", Prefixes: []cd.CD{cd.MustNew("1")}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "RP announcement across the healed link", func() bool { return knowsRP(b, "/rpA") })
	if in.Stats().Dropped == 0 {
		t.Error("the partition dropped nothing: the test exercised no retransmission")
	}
}
