package testbed

import (
	"fmt"
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

// The flow-control chaos scenario measures what adaptive reliability buys
// over the fixed-timer baseline on the same faulted network. Both reliability
// layers run through it at once:
//
//   - the routers' control-plane ARQ carries an RP re-announcement flood
//     across the R3–R6 link while that link drops ctl packets and then
//     partitions outright;
//   - a QR snapshot fetch crosses the lossy-then-partitioned R2–R4 link.
//
// The partition is sized to outlive the legacy fixed schedules (ARQ: 50ms
// doubling over 6 attempts ≈ 3.2s of probing; QR: 100ms doubling over 5
// attempts ≈ 1.7s) but not the adaptive ones (RTO clamped at 2s over 12
// attempts keeps probing past 6s). A static run therefore abandons control
// packets mid-partition and fails the fetch; an adaptive run rides it out
// and completes once the link heals. Goodput and retrans_abandoned_total
// make the difference measurable, and the whole run is virtual-time
// deterministic: equal specs produce bit-identical results.
const (
	// flowChaosObjects is the snapshot size the QR fetcher downloads.
	flowChaosObjects = 64
	// flowChaosPubs is the number of multicast publications riding along.
	flowChaosPubs = 80
	// flowChaosPartition is when the R3–R6 (ctl) and R2–R4 (qr) links go
	// dark: long enough that only adaptive timers still probe at heal time.
	flowChaosPartition = "200ms..4200ms"
)

// FlowChaosSpec parameterizes one flow-control chaos run.
type FlowChaosSpec struct {
	// Loss is the seeded drop probability on the faulted links.
	Loss float64
	// Seed drives the fault injector; equal seeds replay identical runs.
	Seed int64
	// Flow configures every reliability layer of the run — the routers'
	// control-plane ARQ and the QR fetcher — through the unified flowctl
	// surface. nil selects the adaptive defaults; flowctl.Static() selects
	// the fixed-window, fixed-RTO legacy baseline.
	Flow []flowctl.Option
}

// FlowChaosResult is the measurable outcome of one run.
type FlowChaosResult struct {
	// Delivered counts multicast update copies received by subscribers;
	// Missing counts (subscriber, seq) pairs that never arrived.
	Delivered uint64
	Missing   int
	// Fetched is how many snapshot objects the QR fetcher received;
	// GoodputPerSec is Fetched over the time to completion (or over the
	// whole fetch horizon when the download never finished). FetchDoneAt is
	// that completion time relative to the fetch start, zero if never.
	Fetched       int
	GoodputPerSec float64
	FetchDoneAt   time.Duration
	FetchDone     bool
	FetchFailed   bool
	FetchRetries  uint64
	// Retrans and RetransAbandoned aggregate the routers' ARQ counters
	// (retrans_total / retrans_abandoned_total).
	Retrans          uint64
	RetransAbandoned uint64
	// Dropped is faultnet_dropped_total; TraceHash fingerprints the fault
	// decision trace for determinism checks.
	Dropped   uint64
	TraceHash uint64
}

// flowChaosSpecString scopes the faults: ctl loss everywhere, plus the
// partition windows on the two links the reliability layers must cross. The
// multicast data plane keeps the paper's lossless-FIFO link assumption.
func flowChaosSpecString(loss float64) string {
	return fmt.Sprintf(
		"R3-R6:only=ctl,loss=%g,part=%s;R2-R4:only=qr,loss=%g,part=%s;*:only=ctl,loss=%g",
		loss, flowChaosPartition, loss, flowChaosPartition, loss)
}

// RunFlowChaos executes the scenario and returns its measurements.
func RunFlowChaos(spec FlowChaosSpec) (FlowChaosResult, error) {
	var res FlowChaosResult
	s, err := PaperSetup()
	if err != nil {
		return res, err
	}
	s.LinkDelay = 100 * time.Microsecond
	tb := New()
	rn, err := buildRouterNet(tb, s,
		core.WithNDNOptions(ndn.WithInterestLifetime(60*time.Millisecond)),
		core.WithFlowControl(spec.Flow...))
	if err != nil {
		return res, err
	}

	fspec, err := faultnet.ParseSpec(flowChaosSpecString(spec.Loss))
	if err != nil {
		return res, err
	}
	in := faultnet.New(fspec, spec.Seed)
	t0 := time.Unix(0, 0)
	in.SetEpoch(t0)
	reg := obs.NewRegistry()
	in.Instrument(reg)
	// Faults switch on after the bootstrap: RP announcement and
	// subscriptions graft cleanly, then the network degrades.
	tb.Schedule(t0.Add(90*time.Millisecond), func(time.Time) { tb.SetFaults(in) })

	var ann ndn.SliceSink
	if err := rn.router("R1").BecomeRPAt(t0, copss.RPInfo{
		Name:     "/rpA",
		Prefixes: copss.PartitionPrefixes([]string{"1", "2", "3", "4", "5"}),
		Seq:      1,
	}, &ann); err != nil {
		return res, err
	}
	tb.Schedule(t0.Add(time.Millisecond), func(now time.Time) { tb.Emit(now, "R1", ann.Actions) })

	// ARQ retransmission timers on every router.
	tb.Every(t0.Add(10*time.Millisecond), 10*time.Millisecond, func(now time.Time) {
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
		tb.AddHost(name, func(_ time.Time, pkt *wire.Packet) {
			if pkt.Type == wire.TypeMulticast && pkt.Origin != core.FlushOrigin {
				state.seqs[pkt.Seq]++
			}
		}, func(*wire.Packet) time.Duration { return s.Costs.HostProc })
		if _, err := rn.attachClient(router, name, core.FaceClient, s.LinkDelay); err != nil {
			return res, err
		}
		tb.Schedule(t0.Add(50*time.Millisecond), func(now time.Time) {
			tb.Emit(now, name, []ndn.Action{{Face: 0, Packet: &wire.Packet{
				Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/2")},
			}}})
		})
	}
	tb.AddHost("p", nil, func(*wire.Packet) time.Duration { return s.Costs.HostProc })
	if _, err := rn.attachClient("R5", "p", core.FaceClient, s.LinkDelay); err != nil {
		return res, err
	}

	// The ARQ workload under test: a second RP announcement flood at
	// t=250ms, inside the R3–R6 partition window. The R3→R6 hop must be
	// retried until the link heals; a retry budget that gives up earlier
	// abandons the packet and shows up in retrans_abandoned_total.
	var reAnn ndn.SliceSink
	if err := rn.router("R1").BecomeRPAt(t0.Add(250*time.Millisecond), copss.RPInfo{
		Name:     "/rpA",
		Prefixes: copss.PartitionPrefixes([]string{"1", "2", "3", "4", "5"}),
		Seq:      2,
	}, &reAnn); err != nil {
		return res, err
	}
	tb.Schedule(t0.Add(250*time.Millisecond), func(now time.Time) { tb.Emit(now, "R1", reAnn.Actions) })

	// The QR workload under test: a broker on R4 serving a 64-object
	// snapshot, fetched from R2 across the lossy-then-partitioned link.
	leaf := cd.MustParse("/3/1")
	objects := make([]string, flowChaosObjects)
	for i := range objects {
		objects[i] = fmt.Sprintf("o%02d", i)
	}
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
		return res, err
	}
	tb.Schedule(t0.Add(5*time.Millisecond), func(now time.Time) {
		tb.Emit(now, "bk", []ndn.Action{{Face: 0, Packet: &wire.Packet{
			Type: wire.TypeFIBAdd, Name: broker.SnapshotPrefix, Seq: 1, Origin: "bk",
		}}})
	})

	fetch := broker.NewFetch(leaf, spec.Flow...)
	fetchStart := t0.Add(120 * time.Millisecond)
	emitInterests := func(now time.Time, pkts []*wire.Packet) {
		var out []ndn.Action
		for _, p := range pkts {
			out = append(out, ndn.Action{Face: 0, Packet: p})
		}
		tb.Emit(now, "fx", out)
	}
	tb.AddNode("fx", func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
		out, done := fetch.HandleDataAt(now, pkt)
		if done && res.FetchDoneAt == 0 {
			res.FetchDoneAt = now.Sub(fetchStart)
		}
		for _, p := range out {
			sink.Emit(ndn.Action{Face: 0, Packet: p})
		}
	}, func(*wire.Packet) time.Duration { return s.Costs.HostProc }, 0)
	if _, err := rn.attachClient("R2", "fx", core.FaceClient, s.LinkDelay); err != nil {
		return res, err
	}
	tb.Schedule(fetchStart, func(now time.Time) { emitInterests(now, fetch.StartAt(now)) })
	tb.Every(fetchStart.Add(20*time.Millisecond), 20*time.Millisecond, func(now time.Time) {
		if !fetch.Done() && !fetch.Failed() {
			emitInterests(now, fetch.Tick(now))
		}
	})

	// Publications every 5ms from t=100ms keep the multicast plane busy
	// while the reliability layers fight the faults. The cadence stays below
	// the router service rate (3.3ms/packet) so the background load shares
	// the queues without starving the fetch outright.
	pubStart := t0.Add(100 * time.Millisecond)
	for i := 1; i <= flowChaosPubs; i++ {
		seq := uint64(i)
		tb.Schedule(pubStart.Add(time.Duration(i)*5*time.Millisecond), func(now time.Time) {
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

	// The horizon covers the partition, the post-heal recovery, and the
	// static schedules' full abandonment tail.
	deadline := t0.Add(12 * time.Second)
	if err := tb.Run(deadline, 0); err != nil {
		return res, err
	}

	res.TraceHash = in.TraceHash()
	res.Dropped = reg.Counter("faultnet_dropped_total").Value()
	res.Fetched = fetch.Received()
	res.FetchDone = fetch.Done()
	res.FetchFailed = fetch.Failed()
	res.FetchRetries = fetch.Retransmissions()
	span := deadline.Sub(fetchStart)
	if res.FetchDoneAt > 0 {
		span = res.FetchDoneAt
	}
	res.GoodputPerSec = float64(res.Fetched) / span.Seconds()
	for _, r := range rn.routers {
		st := r.Stats()
		res.Retrans += st.Retransmissions
		res.RetransAbandoned += st.RetransAbandoned
	}
	for i := range rn.names {
		state := subs[fmt.Sprintf("s%d", i)]
		for seq := uint64(1); seq <= flowChaosPubs; seq++ {
			n := state.seqs[seq]
			if n == 0 {
				res.Missing++
			}
			res.Delivered += uint64(n)
		}
	}
	return res, nil
}
