package transport

import (
	"context"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// TestBrokerOverTCP runs the full gbroker flow over real sockets: two router
// daemons, a broker on R1 (announcing its prefix with a FIBAdd flood), a
// publisher on R1 and a mover on R2 that downloads a snapshot with the
// query-response fetcher.
func TestBrokerOverTCP(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
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

	// Broker on R1 serving zone /1/1, running the gbroker logic inline.
	b := broker.New("broker1", []cd.CD{cd.MustParse("/1/1")})
	bClient, err := NewClient("broker1", addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer bClient.Close()
	if err := bClient.Subscribe(b.SubscriptionCDs()...); err != nil {
		t.Fatal(err)
	}
	if err := bClient.AnnouncePrefix(broker.SnapshotPrefix, uint64(time.Now().UnixNano())); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			pkt, err := bClient.Receive()
			if err != nil {
				return
			}
			for _, out := range b.HandlePacket(pkt) {
				if err := bClient.Send(out); err != nil {
					return
				}
			}
		}
	}()
	// The broker is subscribed at R1 and its prefix flood reached R2.
	waitFor(t, "broker subscription and prefix flood", func() bool {
		routed := false
		d2.Inspect(func(r *core.Router) { _, _, routed = r.NDN().FIB().Lookup(broker.SnapshotPrefix) })
		return routed && stLen(d1) > 0
	})

	// Publisher populates the zone.
	pub, err := NewClient("pub", addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 1; i <= 3; i++ {
		payload := broker.EncodeUpdate("objA", []byte("state-change"))
		if err := pub.Publish(cd.MustParse("/1/1"), uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "broker to absorb the updates", func() bool {
		updates, _, _ := b.Stats()
		return updates == 3
	})

	// Mover on R2 fetches the snapshot via QR across the router link.
	mover, err := NewClient("mover", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer mover.Close()

	fetch := broker.NewFetch(cd.MustParse("/1/1"), flowctl.WithWindow(1, 5, 32))
	for _, pkt := range fetch.StartAt(time.Now()) {
		if err := mover.Send(pkt); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for !fetch.Done() {
		type rx struct {
			pkt *wire.Packet
			err error
		}
		rxc := make(chan rx, 1)
		go func() {
			p, err := mover.Receive()
			rxc <- rx{p, err}
		}()
		select {
		case got := <-rxc:
			if got.err != nil {
				t.Fatalf("Receive: %v", got.err)
			}
			follow, _ := fetch.HandleDataAt(time.Now(), got.pkt)
			for _, pkt := range follow {
				if err := mover.Send(pkt); err != nil {
					t.Fatal(err)
				}
			}
		case <-deadline:
			t.Fatalf("snapshot fetch timed out: received %d", fetch.Received())
		}
	}
	if fetch.Received() != 1 {
		t.Errorf("received %d objects, want 1 (objA)", fetch.Received())
	}
	_, queries, _ := b.Stats()
	if queries < 2 { // manifest + object
		t.Errorf("broker served %d queries", queries)
	}
}
