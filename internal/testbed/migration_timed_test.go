package testbed

import (
	"fmt"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// TestMigrationUnderRealDelays verifies the loss-freedom of the RP handoff
// protocol in the timed discrete-event testbed, where link propagation and
// router service times are real and control packets genuinely race
// in-flight data — the regime the paper's "half an RTT" argument addresses.
func TestMigrationUnderRealDelays(t *testing.T) {
	for _, delay := range []time.Duration{100 * time.Microsecond, 2 * time.Millisecond} {
		delay := delay
		t.Run(fmt.Sprintf("link=%v", delay), func(t *testing.T) {
			s, err := PaperSetup()
			if err != nil {
				t.Fatal(err)
			}
			s.LinkDelay = delay
			tb := New()
			rn, err := buildRouterNet(tb, s)
			if err != nil {
				t.Fatal(err)
			}

			// RP at R1 serving the world partition.
			var ann ndn.SliceSink
			if err := rn.router("R1").BecomeRPTo(copss.RPInfo{
				Name:     "/rpA",
				Prefixes: copss.PartitionPrefixes([]string{"1", "2", "3", "4", "5"}),
				Seq:      1,
			}, &ann); err != nil {
				t.Fatal(err)
			}
			tb.Schedule(tb.Now().Add(time.Millisecond), func(now time.Time) {
				tb.Emit(now, "R1", ann.Actions)
			})

			// Subscribers of region 2 on every router; one publisher on R5.
			type rx struct{ seqs map[uint64]int }
			subs := map[string]*rx{}
			for i, router := range rn.names {
				name := fmt.Sprintf("s%d", i)
				state := &rx{seqs: map[uint64]int{}}
				subs[name] = state
				tb.AddHost(name, func(_ time.Time, pkt *wire.Packet) {
					if pkt.Type == wire.TypeMulticast && pkt.Origin != core.FlushOrigin {
						state.seqs[pkt.Seq]++
					}
				}, func(*wire.Packet) time.Duration { return s.Costs.HostProc })
				if _, err := rn.attachClient(router, name, core.FaceClient, s.LinkDelay); err != nil {
					t.Fatal(err)
				}
				tb.Schedule(tb.Now().Add(50*time.Millisecond), func(now time.Time) {
					tb.Emit(now, name, []ndn.Action{{Face: 0, Packet: &wire.Packet{
						Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/2")},
					}}})
				})
			}
			tb.AddHost("p", nil, func(*wire.Packet) time.Duration { return s.Costs.HostProc })
			if _, err := rn.attachClient("R5", "p", core.FaceClient, s.LinkDelay); err != nil {
				t.Fatal(err)
			}

			// Publish seq 1..N every 2 ms starting at t=100 ms; the handoff
			// fires mid-stream at t=150 ms with packets in flight.
			const total = 100
			start := tb.Now().Add(100 * time.Millisecond)
			for i := 1; i <= total; i++ {
				seq := uint64(i)
				tb.Schedule(start.Add(time.Duration(i)*2*time.Millisecond), func(now time.Time) {
					tb.Emit(now, "p", []ndn.Action{{Face: 0, Packet: &wire.Packet{
						Type:    wire.TypeMulticast,
						CDs:     []cd.CD{cd.MustParse("/2/3")},
						Origin:  "p",
						Seq:     seq,
						Payload: []byte("x"),
						SentAt:  now.UnixNano(),
					}}})
				})
			}

			// Handoff /2 (and /4, /5) from rpA@R1 to rpB@R6, path R1-R3-R6.
			tb.Schedule(start.Add(150*time.Millisecond), func(now time.Time) {
				move := []cd.CD{cd.MustNew("2"), cd.MustNew("4"), cd.MustNew("5")}
				acts, err := core.PrepareHandoff(now, "/rpA", "/rpB", move, 2, rn.handoffPath(rn.id("R1"), rn.id("R6")))
				if err != nil {
					t.Errorf("PrepareHandoff: %v", err)
					return
				}
				tb.Emit(now, "R6", acts.FromNew)
				tb.Emit(now, "R1", acts.FromOld)
			})

			deadline := start.Add(time.Duration(total)*2*time.Millisecond + 5*time.Second)
			if err := tb.Run(deadline, 0); err != nil {
				t.Fatal(err)
			}

			// Loss-freedom: every subscriber saw every sequence number.
			for name, state := range subs {
				for seq := uint64(1); seq <= total; seq++ {
					if state.seqs[seq] == 0 {
						t.Errorf("%s missed seq %d at link delay %v", name, seq, delay)
					}
				}
			}
			// And the new RP actually took over.
			if rn.router("R6").Stats().RPDeliveries == 0 {
				t.Error("new RP never delivered")
			}
		})
	}
}
