package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/faultnet"
	"github.com/icn-gaming/gcopss/internal/obs"
)

// faceCount reads the daemon's live face table size.
func faceCount(d *Daemon) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.faces)
}

// closeAllFaces force-closes every live connection (simulates link death).
func closeAllFaces(d *Daemon) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.faces {
		c.Close() //nolint:errcheck // deliberately killing the link
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStalledPeerIsDropped is the goroutine-leak regression: a peer that
// completes the hello, sends a partial frame and then stalls used to park
// the daemon's reader in io.ReadFull forever. With the idle read deadline
// the face must be torn down on its own.
func TestStalledPeerIsDropped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := NewDaemon("R1")
	d.SetLogger(func(string, ...interface{}) {})
	d.SetIdleTimeout(200 * time.Millisecond)
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Run(ctx) //nolint:errcheck // cancelled at test end

	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close() //nolint:errcheck
	if err := NewConn(nc).SendHello(PeerClient, "stall"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "face attach", func() bool { return faceCount(d) == 1 })
	// Send half a frame header, then go silent forever.
	if _, err := nc.Write([]byte{0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stalled face teardown", func() bool { return faceCount(d) == 0 })
}

// TestDaemonReconnectsDroppedNeighbor kills an established router-router
// link and expects the dialing side to re-dial with backoff, re-register the
// face and bump reconnects_total.
func TestDaemonReconnectsDroppedNeighbor(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d1, _ := startDaemon(t, ctx, "R1")
	d2, addr2 := startDaemon(t, ctx, "R2")

	reg := obs.NewRegistry()
	d1.Instrument(reg)
	if err := d1.ConnectRouter(addr2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial link", func() bool { return faceCount(d1) == 1 && faceCount(d2) == 1 })

	// Kill the link from the accepting side; R1 (the dialer) re-establishes.
	closeAllFaces(d2)
	reconnects := reg.Counter("reconnects_total")
	waitFor(t, "reconnect", func() bool {
		return reconnects.Value() > 0 && faceCount(d1) == 1 && faceCount(d2) == 1
	})

	// The healed face is registered with the router again, as a router face
	// (so control-plane floods and ARQ treat it correctly).
	routerFaces := 0
	d1.Inspect(func(r *core.Router) {
		for _, id := range r.Faces() {
			if kind, ok := r.FaceKindOf(id); ok && kind == core.FaceRouter {
				routerFaces++
			}
		}
	})
	if routerFaces != 1 {
		t.Fatalf("router faces after reconnect = %d, want 1", routerFaces)
	}
	_ = addr2
}

// TestClientReconnect swaps the client onto a fresh connection after its
// link dies and verifies traffic resumes.
func TestClientReconnect(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d, addr := startDaemon(t, ctx, "R1")

	c, err := NewClient("c1", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	reg := obs.NewRegistry()
	c.Instrument(reg)
	waitFor(t, "client attach", func() bool { return faceCount(d) == 1 })

	closeAllFaces(d)
	if _, err := c.Receive(); err == nil {
		t.Fatal("Receive on a dead link succeeded")
	}
	if err := c.Reconnect(nil); err != nil {
		t.Fatalf("Reconnect: %v", err)
	}
	if got := reg.Counter("reconnects_total").Value(); got != 1 {
		t.Fatalf("reconnects_total = %d, want 1", got)
	}
	// The new face carries traffic again (subscriptions are face state and
	// must be re-issued, which Subscribe here does).
	if err := c.Subscribe(cd.MustParse("/1/2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fresh face", func() bool { return faceCount(d) == 1 })
}

// TestClientFaultInjection drops every uplink packet and expects the router
// to see none of them; loss is recorded by the injector.
func TestClientFaultInjection(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d, addr := startDaemon(t, ctx, "R1")

	spec, err := faultnet.ParseSpec("loss=1")
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.New(spec, 42)
	c, err := NewClient("c1", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	c.SetFaults(in)
	waitFor(t, "client attach", func() bool { return faceCount(d) == 1 })

	for i := 0; i < 20; i++ {
		if err := c.Publish(cd.MustParse("/1/2"), uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := in.Stats().Dropped; got != 20 {
		t.Fatalf("injector dropped %d, want 20", got)
	}
	// FIFO fence: a Subscribe sent with the injector lifted is behind
	// anything the uplink let through, so once it has landed the count of
	// publications the router saw is final.
	c.SetFaults(nil)
	if err := c.Subscribe(cd.MustParse("/1/2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fence subscription", func() bool { return stLen(d) == 1 })
	var pubs uint64
	d.Inspect(func(r *core.Router) { pubs = r.Stats().MulticastIn })
	if pubs != 0 {
		t.Fatalf("router saw %d publications through a loss=1 uplink", pubs)
	}
}
