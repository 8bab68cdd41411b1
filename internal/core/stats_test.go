package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// TestStatsConcurrentWithHandlePacket is the race regression for the old
// plain-uint64 Stats: one goroutine drives the packet path while another
// polls Stats(). Run under -race this fails on any non-atomic counter.
func TestStatsConcurrentWithHandlePacket(t *testing.T) {
	r := NewRouter("R")
	r.AddFace(1, FaceClient)
	if _, err := becomeRP(r, copss.RPInfo{Name: "/rp", Prefixes: []cd.CD{cd.MustParse("/1")}, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	handle(r, now, 1, sub("/1/2"))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			handle(r, now, 1, mcast("/1/2", "p", uint64(i), "x"))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			_ = r.Stats()
		}
	}()
	wg.Wait()

	got := r.Stats()
	if got.MulticastIn != 5000 || got.RPDeliveries != 5000 || got.MulticastOut != 5000 {
		t.Errorf("final stats lost updates: %+v", got)
	}
}

// statsDelta subtracts two Stats snapshots field by field via reflection, so
// a field added to Stats is automatically covered (expected delta zero
// unless a case says otherwise).
func statsDelta(before, after Stats) Stats {
	var d Stats
	bv, av, dv := reflect.ValueOf(before), reflect.ValueOf(after), reflect.ValueOf(&d).Elem()
	for i := 0; i < bv.NumField(); i++ {
		dv.Field(i).SetUint(av.Field(i).Uint() - bv.Field(i).Uint())
	}
	return d
}

// statsTopology builds the R1 - R2 - R3 line with R1 hosting /rp1 serving
// {/1, /2} (prefix-free, no root, so foreign announcements don't conflict)
// and the announcement flooded.
func statsTopology(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t)
	h.addRouter("R1")
	h.addRouter("R2")
	h.addRouter("R3")
	h.connect("R1", 1, "R2", 1)
	h.connect("R2", 2, "R3", 1)
	actions, err := becomeRP(h.routers["R1"], copss.RPInfo{
		Name:     "/rp1",
		Prefixes: []cd.CD{cd.MustParse("/1"), cd.MustParse("/2")},
		Seq:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.enqueueActions("R1", actions)
	h.run()
	return h
}

// inject queues a packet as if it arrived on a router-router face.
func inject(h *harness, router string, face ndn.FaceID, pkt *wire.Packet) {
	h.queue = append(h.queue, netEvent{router: router, face: face, pkt: pkt})
}

// encapPub builds the encapsulated-publication Interest a remote edge
// router would forward toward rpName.
func encapPub(t *testing.T, rpName string, inner *wire.Packet) *wire.Packet {
	t.Helper()
	outer := new(wire.Packet)
	if err := wire.Encapsulate(rpName+inner.CDs[0].Key()+"/"+inner.Origin+"/1", inner, outer); err != nil {
		t.Fatal(err)
	}
	return outer
}

// TestStatsExactDeltasPerPacketType drives one packet of each wire type
// through the 3-router line and asserts the exact delta of every core.Stats
// field on the router under test. Zero-delta cases are as load-bearing as
// the rest: plain Interests and Data are accounted by the NDN engine, not
// the COPSS counters.
func TestStatsExactDeltasPerPacketType(t *testing.T) {
	cases := []struct {
		name   string
		target string
		setup  func(t *testing.T, h *harness) // extra wiring before the snapshot
		fire   func(t *testing.T, h *harness) // the one packet under test
		want   Stats
	}{
		{
			// Client publication at the edge: received raw, encapsulated
			// toward the RP, then the RP's multicast transits R2 once more
			// on its way to the subscriber behind R3.
			name:   "multicast client publication",
			target: "R2",
			setup: func(t *testing.T, h *harness) {
				h.attach("soldier", "R3", 10)
				h.fromClient("soldier", sub("/1/2"))
				h.run()
				h.attach("plane", "R2", 11)
			},
			fire: func(t *testing.T, h *harness) {
				h.fromClient("plane", mcast("/1/2", "plane", 1, "flyover"))
			},
			want: Stats{MulticastIn: 2, PublishEncapsulated: 1, MulticastOut: 1},
		},
		{
			// Encapsulated publication arriving at the RP host: decapsulated
			// and fanned down the subscription tree. The arrival is an
			// Interest, so MulticastIn stays 0.
			name:   "interest rp-bound encapsulation",
			target: "R1",
			setup: func(t *testing.T, h *harness) {
				h.attach("soldier", "R1", 10)
				h.fromClient("soldier", sub("/1/2"))
				h.run()
			},
			fire: func(t *testing.T, h *harness) {
				inject(h, "R1", 1, encapPub(t, "/rp1", mcast("/1/2", "plane", 1, "x")))
			},
			want: Stats{RPDeliveries: 1, MulticastOut: 1},
		},
		{
			// Stage-B redirect: the RP's serving set shrank (handoff applied
			// locally) but stale encapsulations still arrive; they are
			// re-encapsulated toward the now-covering RP, not dropped.
			name:   "interest redirected after handoff",
			target: "R1",
			setup: func(t *testing.T, h *harness) {
				inject(h, "R1", 1, &wire.Packet{
					Type: wire.TypeHandoff, Name: "/rp2", Origin: "/rp1",
					CDs: []cd.CD{cd.MustParse("/2")}, Seq: 2,
				})
				h.run()
			},
			fire: func(t *testing.T, h *harness) {
				inject(h, "R1", 1, encapPub(t, "/rp1", mcast("/2/1", "plane", 1, "x")))
			},
			want: Stats{Redirected: 1},
		},
		{
			name:   "interest plain ndn",
			target: "R2",
			setup: func(t *testing.T, h *harness) {
				h.attach("c", "R2", 10)
			},
			fire: func(t *testing.T, h *harness) {
				h.fromClient("c", &wire.Packet{Type: wire.TypeInterest, Name: "/content/x"})
			},
			want: Stats{},
		},
		{
			name:   "data unsolicited",
			target: "R2",
			fire: func(t *testing.T, h *harness) {
				inject(h, "R2", 1, &wire.Packet{Type: wire.TypeData, Name: "/content/x", Payload: []byte("y")})
			},
			want: Stats{},
		},
		{
			name:   "subscribe",
			target: "R2",
			setup: func(t *testing.T, h *harness) {
				h.attach("c", "R2", 10)
			},
			fire: func(t *testing.T, h *harness) {
				h.fromClient("c", sub("/1/2"))
			},
			want: Stats{SubscribesIn: 1},
		},
		{
			name:   "unsubscribe",
			target: "R2",
			setup: func(t *testing.T, h *harness) {
				h.attach("c", "R2", 10)
				h.fromClient("c", sub("/1/2"))
				h.run()
			},
			fire: func(t *testing.T, h *harness) {
				h.fromClient("c", unsub("/1/2"))
			},
			want: Stats{UnsubscribesIn: 1},
		},
		{
			name:   "announcement",
			target: "R2",
			fire: func(t *testing.T, h *harness) {
				inject(h, "R2", 1, &wire.Packet{
					Type: wire.TypeFIBAdd, Name: "/rpZ", Origin: "RX",
					CDs: []cd.CD{cd.MustParse("/7")}, Seq: 5,
				})
			},
			// The re-flood toward R3 is ARQ-stamped, so R3's ack comes back.
			want: Stats{AnnouncementsIn: 1, AcksIn: 1},
		},
		{
			name:   "handoff announcement",
			target: "R2",
			fire: func(t *testing.T, h *harness) {
				inject(h, "R2", 1, &wire.Packet{
					Type: wire.TypeHandoff, Name: "/rp2", Origin: "/rp1",
					CDs: []cd.CD{cd.MustParse("/2")}, Seq: 2,
				})
			},
			want: Stats{AnnouncementsIn: 1, AcksIn: 1},
		},
		{
			// Join reaching the RP: the branch is grafted and the joiner's
			// flush marker is multicast down the (just-grafted) tree, hence
			// one MulticastOut back toward the joiner.
			name:   "join at rp",
			target: "R1",
			fire: func(t *testing.T, h *harness) {
				inject(h, "R1", 1, &wire.Packet{
					Type: wire.TypeJoin, Name: "/rp1", Origin: "R3",
					CDs: []cd.CD{cd.MustParse("/1/2")},
				})
			},
			want: Stats{JoinsIn: 1, MulticastOut: 1, AcksIn: 1},
		},
		{
			name:   "confirm without graft",
			target: "R2",
			fire: func(t *testing.T, h *harness) {
				inject(h, "R2", 1, &wire.Packet{
					Type: wire.TypeConfirm, Name: "/rp1",
					CDs: []cd.CD{cd.MustParse("/1/2")},
				})
			},
			want: Stats{ConfirmsIn: 1},
		},
		{
			// Leave is an Unsubscribe in migration clothing; both counters
			// move because handleLeave delegates to handleUnsubscribe.
			name:   "leave",
			target: "R2",
			fire: func(t *testing.T, h *harness) {
				inject(h, "R2", 2, &wire.Packet{
					Type: wire.TypeLeave, Name: "/rp1",
					CDs: []cd.CD{cd.MustParse("/1/2")},
				})
			},
			want: Stats{LeavesIn: 1, UnsubscribesIn: 1},
		},
		{
			name:   "prune toward known upstream",
			target: "R2",
			fire: func(t *testing.T, h *harness) {
				inject(h, "R2", 2, &wire.Packet{
					Type: wire.TypePrune, Name: "/rp1",
					CDs: []cd.CD{cd.MustParse("/1/2")},
				})
			},
			// The forwarded Prune toward R1 is ARQ-stamped; R1 acks it.
			want: Stats{AcksIn: 1},
		},
		{
			name:   "prune for unknown upstream dropped",
			target: "R2",
			fire: func(t *testing.T, h *harness) {
				inject(h, "R2", 2, &wire.Packet{
					Type: wire.TypePrune, Name: "/rpX",
					CDs: []cd.CD{cd.MustParse("/1/2")},
				})
			},
			want: Stats{Dropped: 1},
		},
		{
			name:   "unknown packet type dropped",
			target: "R2",
			fire: func(t *testing.T, h *harness) {
				inject(h, "R2", 1, &wire.Packet{Type: wire.Type(99)})
			},
			want: Stats{Dropped: 1},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := statsTopology(t)
			if tc.setup != nil {
				tc.setup(t, h)
			}
			before := h.routers[tc.target].Stats()
			tc.fire(t, h)
			h.run()
			got := statsDelta(before, h.routers[tc.target].Stats())
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s delta = %+v, want %+v", tc.target, got, tc.want)
			}
		})
	}
}
