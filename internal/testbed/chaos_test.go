package testbed

import (
	"fmt"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/broker"
	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/faultnet"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// The chaos matrix drives the full Fig. 3b network through an RP migration
// and a concurrent QR snapshot download while the control plane is under
// seeded faults: loss, reordering, and a partition of the handoff path
// during one of the three migration stages. The multicast data plane keeps
// the paper's FIFO-lossless link assumption (faults are only=ctl / only=qr),
// so the assertions are exact: the reliability layer must make migration
// loss-free and fetches terminating no matter what happens to control
// packets.

// chaosStage names when the R3-R6 partition window opens relative to the
// handoff instant (t=250ms of virtual time).
var chaosStages = map[string]string{
	"A": "245ms..252ms", // around PrepareHandoff: pre-seeding and first floods
	"B": "250ms..265ms", // while Handoff floods and Joins race
	"C": "255ms..290ms", // mid-grafting: Confirms, Prunes, stragglers
}

type chaosResult struct {
	missing      int    // (subscriber, seq) pairs never delivered
	delivered    uint64 // total multicast deliveries (dups included)
	trace        uint64 // injector decision trace hash
	dropped      uint64 // faultnet_dropped_total
	retrans      uint64 // sum of router ARQ retransmissions
	newRPActive  bool
	fetchDone    bool
	fetchFailed  bool
	fetchRetries uint64
}

func chaosSpec(loss float64, reorder bool, stage string) string {
	reorderP := "0"
	if reorder {
		reorderP = "0.3"
	}
	// Publications are encapsulated as Interests toward the RP (COPSS push
	// semantics), so qr-class faults stay off the publication paths: they are
	// scoped to the R2-R4 link, which only the snapshot fetch traverses. The
	// data plane itself keeps the paper's lossless-FIFO link assumption.
	return fmt.Sprintf(
		"R3-R6:only=ctl,loss=%g,reorder=%s,part=%s;R2-R4:only=qr,loss=%g;*:only=ctl,loss=%g,reorder=%s",
		loss, reorderP, chaosStages[stage], loss, loss, reorderP)
}

func runChaosCell(t *testing.T, loss float64, reorder bool, stage string, seed int64) chaosResult {
	t.Helper()
	s, err := PaperSetup()
	if err != nil {
		t.Fatal(err)
	}
	s.LinkDelay = 100 * time.Microsecond
	tb := New()
	// A short PIT lifetime lets retried Interests re-forward instead of
	// aggregating onto a pending entry whose downstream copy was lost.
	rn, err := buildRouterNet(tb, s,
		core.WithNDNOptions(ndn.WithInterestLifetime(60*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}

	spec, err := faultnet.ParseSpec(chaosSpec(loss, reorder, stage))
	if err != nil {
		t.Fatal(err)
	}
	in := faultnet.New(spec, seed)
	in.SetEpoch(time.Unix(0, 0))
	reg := obs.NewRegistry()
	in.Instrument(reg)
	// Faults switch on after the subscription bootstrap (t=90ms): the chaos
	// window covers the publish stream, the migration and the QR download.
	tb.Schedule(time.Unix(0, 0).Add(90*time.Millisecond), func(time.Time) {
		tb.SetFaults(in)
	})

	// RP at R1; the announcement flood is ARQ-registered via BecomeRPAt.
	var ann ndn.SliceSink
	if err := rn.router("R1").BecomeRPAt(time.Unix(0, 0), copss.RPInfo{
		Name:     "/rpA",
		Prefixes: copss.PartitionPrefixes([]string{"1", "2", "3", "4", "5"}),
		Seq:      1,
	}, &ann); err != nil {
		t.Fatal(err)
	}
	tb.Schedule(time.Unix(0, 0).Add(time.Millisecond), func(now time.Time) {
		tb.Emit(now, "R1", ann.Actions)
	})

	// ARQ retransmission timers on every router.
	tb.Every(time.Unix(0, 0).Add(10*time.Millisecond), 10*time.Millisecond, func(now time.Time) {
		for id, r := range rn.routers {
			tb.EmitTo(now, rn.names[id], func(sink ndn.ActionSink) { r.TickTo(now, sink) })
		}
	})

	// Subscribers of region 2 on every router; one publisher on R5.
	type rx struct{ seqs map[uint64]int }
	subs := map[string]*rx{}
	for i, router := range rn.names {
		name := fmt.Sprintf("s%d", i)
		state := &rx{seqs: map[uint64]int{}}
		subs[name] = state
		tb.AddNode(name, func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, _ ndn.ActionSink) {
			if pkt.Type == wire.TypeMulticast && pkt.Origin != core.FlushOrigin {
				state.seqs[pkt.Seq]++
			}
		}, func(*wire.Packet) time.Duration { return s.Costs.HostProc }, 0)
		if _, err := rn.attachClient(router, name, core.FaceClient, s.LinkDelay); err != nil {
			t.Fatal(err)
		}
		tb.Schedule(time.Unix(0, 0).Add(50*time.Millisecond), func(now time.Time) {
			tb.Emit(now, name, []ndn.Action{{Face: 0, Packet: &wire.Packet{
				Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/2")},
			}}})
		})
	}
	tb.AddNode("p", func(time.Time, ndn.FaceID, *wire.Packet, ndn.ActionSink) {},
		func(*wire.Packet) time.Duration { return s.Costs.HostProc }, 0)
	if _, err := rn.attachClient("R5", "p", core.FaceClient, s.LinkDelay); err != nil {
		t.Fatal(err)
	}

	// A QR snapshot broker on R4 and a fetcher on R2, running through the
	// same faulted network while the migration churns.
	leaf := cd.MustParse("/3/1")
	objects := []string{"o0", "o1", "o2", "o3", "o4", "o5", "o6", "o7"}
	tb.AddNode("bk", func(now time.Time, from ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
		if pkt.Type != wire.TypeInterest {
			return
		}
		if pkt.Name == broker.ManifestName(leaf) {
			var manifest []byte
			for _, id := range objects {
				manifest = append(manifest, []byte(id+":10\n")...)
			}
			sink.Emit(ndn.Action{Face: from, Packet: &wire.Packet{
				Type: wire.TypeData, Name: pkt.Name, Payload: manifest,
			}})
			return
		}
		for _, id := range objects {
			if pkt.Name == broker.ObjectName(leaf, id) {
				sink.Emit(ndn.Action{Face: from, Packet: &wire.Packet{
					Type: wire.TypeData, Name: pkt.Name,
					Payload: []byte(fmt.Sprintf("obj:%s:1:", id)),
				}})
				return
			}
		}
	}, func(*wire.Packet) time.Duration { return s.Costs.HostProc }, 0)
	if _, err := rn.attachClient("R4", "bk", core.FaceClient, s.LinkDelay); err != nil {
		t.Fatal(err)
	}
	tb.Schedule(time.Unix(0, 0).Add(5*time.Millisecond), func(now time.Time) {
		tb.Emit(now, "bk", []ndn.Action{{Face: 0, Packet: &wire.Packet{
			Type: wire.TypeFIBAdd, Name: broker.SnapshotPrefix, Seq: 1, Origin: "bk",
		}}})
	})

	fetch := broker.NewFetch(leaf, flowctl.WithWindow(1, 3, 16))
	emitInterests := func(now time.Time, pkts []*wire.Packet) {
		var out []ndn.Action
		for _, p := range pkts {
			out = append(out, ndn.Action{Face: 0, Packet: p})
		}
		tb.Emit(now, "fx", out)
	}
	tb.AddNode("fx", func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
		out, _ := fetch.HandleDataAt(now, pkt)
		for _, p := range out {
			sink.Emit(ndn.Action{Face: 0, Packet: p})
		}
	}, func(*wire.Packet) time.Duration { return s.Costs.HostProc }, 0)
	if _, err := rn.attachClient("R2", "fx", core.FaceClient, s.LinkDelay); err != nil {
		t.Fatal(err)
	}
	fetchStart := time.Unix(0, 0).Add(120 * time.Millisecond)
	tb.Schedule(fetchStart, func(now time.Time) { emitInterests(now, fetch.StartAt(now)) })
	tb.Every(fetchStart.Add(20*time.Millisecond), 20*time.Millisecond, func(now time.Time) {
		if !fetch.Done() && !fetch.Failed() {
			emitInterests(now, fetch.Tick(now))
		}
	})

	// Publish seq 1..N every 2 ms starting at t=100 ms; the handoff fires
	// mid-stream at t=250 ms with packets in flight and faults active.
	const total = 80
	start := time.Unix(0, 0).Add(100 * time.Millisecond)
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

	// Handoff /2 (and /4, /5) from rpA@R1 to rpB@R6, path R1-R3-R6 — the
	// partitioned link is in the middle of the handoff path.
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

	deadline := start.Add(time.Duration(total)*2*time.Millisecond + 10*time.Second)
	if err := tb.Run(deadline, 0); err != nil {
		t.Fatal(err)
	}

	res := chaosResult{
		trace:        in.TraceHash(),
		dropped:      reg.Counter("faultnet_dropped_total").Value(),
		newRPActive:  rn.router("R6").Stats().RPDeliveries > 0,
		fetchDone:    fetch.Done(),
		fetchFailed:  fetch.Failed(),
		fetchRetries: fetch.Retransmissions(),
	}
	for _, r := range rn.routers {
		res.retrans += r.Stats().Retransmissions
	}
	for i := range rn.names {
		state := subs[fmt.Sprintf("s%d", i)]
		for seq := uint64(1); seq <= total; seq++ {
			n := state.seqs[seq]
			if n == 0 {
				res.missing++
			}
			res.delivered += uint64(n)
		}
	}
	return res
}

// TestChaosMatrix sweeps {loss} × {reorder} × {partition stage}: under every
// cell the migration must stay loss-free once it settles and the snapshot
// download must terminate.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow")
	}
	for _, loss := range []float64{0, 0.01, 0.05, 0.20} {
		for _, reorder := range []bool{false, true} {
			for _, stage := range []string{"A", "B", "C"} {
				loss, reorder, stage := loss, reorder, stage
				name := fmt.Sprintf("loss=%g/reorder=%v/part=%s", loss, reorder, stage)
				t.Run(name, func(t *testing.T) {
					res := runChaosCell(t, loss, reorder, stage, 1)
					if res.missing > 0 {
						t.Errorf("%d (subscriber, seq) deliveries missing — migration lost data", res.missing)
					}
					if !res.newRPActive {
						t.Error("new RP never delivered")
					}
					if !res.fetchDone && !res.fetchFailed {
						t.Error("QR fetch never terminated")
					}
					if loss == 0 && !res.fetchDone {
						t.Error("QR fetch failed on a lossless network")
					}
					if loss >= 0.05 {
						if res.dropped == 0 {
							t.Error("faultnet_dropped_total is zero under 5%+ loss")
						}
						if res.retrans == 0 {
							t.Error("retrans_total is zero under 5%+ loss — ARQ never fired")
						}
					}
				})
			}
		}
	}
}

// TestChaosDeterminism runs the acceptance cell — 5% loss with reordering —
// twice with the same seed: the fault decision trace and every observable
// outcome must be bit-identical.
func TestChaosDeterminism(t *testing.T) {
	a := runChaosCell(t, 0.05, true, "B", 7)
	b := runChaosCell(t, 0.05, true, "B", 7)
	if a != b {
		t.Fatalf("same seed diverged:\n  run1 %+v\n  run2 %+v", a, b)
	}
	if a.missing != 0 {
		t.Fatalf("acceptance cell lost %d deliveries", a.missing)
	}
	if a.dropped == 0 || a.retrans == 0 {
		t.Fatalf("acceptance cell did not exercise faults: %+v", a)
	}
	// A different seed must change the packet trace (the hash is live).
	c := runChaosCell(t, 0.05, true, "B", 8)
	if c.trace == a.trace {
		t.Fatal("different seeds produced identical traces")
	}
}
