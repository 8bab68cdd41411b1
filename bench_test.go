// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact, reporting the headline quantities as custom metrics), plus
// micro-benchmarks of the router engines — the real-code counterparts of
// the processing costs that parameterize the simulator.
//
//	go test -bench=. -benchmem .
package gcopss_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/copss"
	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/experiments"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/testbed"
	"github.com/icn-gaming/gcopss/internal/trace"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// benchOpts is the experiment scale used by the table/figure benches: small
// enough for tight iteration, large enough for every paper effect.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.012, Seed: 42}
}

func newBenchWorkbench(b *testing.B) *experiments.Workbench {
	b.Helper()
	w, err := experiments.NewWorkbench(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkFig3Trace regenerates the trace characterization (Fig. 3c/3d).
func BenchmarkFig3Trace(b *testing.B) {
	w := newBenchWorkbench(b)
	// Warm-up run: at -benchtime=1x this benchmark finishes in ~0.1 ms, so a
	// process-cold first iteration would swamp the recorded magnitude.
	if _, err := experiments.Fig3(w); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.TotalUpdates), "updates")
			b.ReportMetric(r.PlayersPerArea.Mean, "players/area")
		}
	}
}

// BenchmarkFig4Microbenchmark runs the three-system testbed comparison and
// reports the mean latencies (paper: ≈8.5 ms / ≈25 ms / ≈12 s).
func BenchmarkFig4Microbenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(experiments.Options{Scale: 0.05, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.GCOPSS.Latency.Mean(), "gcopss-ms")
			b.ReportMetric(r.IP.Latency.Mean(), "ipserver-ms")
			b.ReportMetric(r.NDN.Latency.Mean()/1000, "ndn-s")
		}
	}
}

// BenchmarkBackbone runs the backbone-scale scenario — the 79-core
// Rocketfuel surrogate with ~200 edge routers and a 2,000-player streaming
// workload — on the packet-level testbed. The repository benchmark's
// sim-backbone workload is the same run at 5 s; this is the go-test
// counterpart for working on the testbed or the scheduler.
func BenchmarkBackbone(b *testing.B) {
	var res *testbed.BackboneResult
	for i := 0; i < b.N; i++ {
		s, err := testbed.PaperBackboneSetup(2000, 5*time.Second, 42)
		if err != nil {
			b.Fatal(err)
		}
		if res, err = testbed.RunBackbone(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Obs.Deliveries), "deliveries")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Obs.PacketEvents), "ns/packet-event")
}

// BenchmarkTable1RPs runs the RP/server sweep and reports the congestion
// ratio between 1 and 3 RPs and the server/G-COPSS latency gap.
func BenchmarkTable1RPs(b *testing.B) {
	w := newBenchWorkbench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			one, _ := r.Row("G-COPSS", "1")
			three, _ := r.Row("G-COPSS", "3")
			srv, _ := r.Row("IP Server", "3")
			b.ReportMetric(one.LatencyMs/three.LatencyMs, "congestion-x")
			b.ReportMetric(srv.LatencyMs/three.LatencyMs, "server-gap-x")
			b.ReportMetric(srv.LoadGB/three.LoadGB, "load-ratio")
		}
	}
}

// BenchmarkFig5AutoBalance runs the traffic-concentration panels and
// reports the number of automatic splits and the settled latency.
func BenchmarkFig5AutoBalance(b *testing.B) {
	w := newBenchWorkbench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(r.Auto.Splits)), "splits")
			b.ReportMetric(r.Auto.MeanMs, "auto-ms")
			b.ReportMetric(r.ThreeRP.MeanMs, "3rp-ms")
			b.ReportMetric(r.Auto.P50Ms, "auto-p50-ms")
			b.ReportMetric(r.Auto.P99Ms, "auto-p99-ms")
		}
	}
}

// BenchmarkFig6Scalability runs the player sweep and reports the server
// knee (latency blow-up factor from 50 to 400 players) against G-COPSS.
func BenchmarkFig6Scalability(b *testing.B) {
	w := newBenchWorkbench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first, last := r.Points[0], r.Points[len(r.Points)-1]
			b.ReportMetric(last.ServerLatencyMs/first.ServerLatencyMs, "server-blowup-x")
			b.ReportMetric(last.GCOPSSLatencyMs/first.GCOPSSLatencyMs, "gcopss-growth-x")
		}
	}
}

// BenchmarkTable2Hybrid runs the full-trace comparison and reports the load
// ordering (G-COPSS < hybrid < server) and hybrid's latency win.
func BenchmarkTable2Hybrid(b *testing.B) {
	w := newBenchWorkbench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			gc, _ := r.Row("G-COPSS")
			hy, _ := r.Row("hybrid-G-COPSS")
			srv, _ := r.Row("IP Server")
			b.ReportMetric(srv.LoadGB/gc.LoadGB, "server/gcopss-load")
			b.ReportMetric(hy.LoadGB/gc.LoadGB, "hybrid/gcopss-load")
			b.ReportMetric(gc.LatencyMs/hy.LatencyMs, "hybrid-latency-win")
		}
	}
}

// BenchmarkTable3Movement runs the movement experiment and reports the
// convergence means of the three snapshot schemes.
func BenchmarkTable3Movement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := newBenchWorkbench(b) // object state evolves; fresh world per run
		r, err := experiments.Table3(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			qr5, _ := r.Scheme("QR, window=5")
			qr15, _ := r.Scheme("QR, window=15")
			cyc, _ := r.Scheme("Cyclic-Multicast")
			b.ReportMetric(qr5.TotalMean, "qr5-ms")
			b.ReportMetric(qr15.TotalMean, "qr15-ms")
			b.ReportMetric(cyc.TotalMean, "cyclic-ms")
			b.ReportMetric(qr15.BytesGB/cyc.BytesGB, "qr/cyclic-bytes")
		}
	}
}

// BenchmarkFlowControlChaos runs the flow-control chaos matrix: the same
// seeded loss-and-partition network under the adaptive flowctl defaults and
// under the fixed-timer legacy baseline, at both ends of the loss grid. The
// artifact records the headline quantities of the adaptive-flow-control work:
// snapshot goodput (obj/s over time-to-completion), objects fetched, and
// retrans_abandoned_total. The acceptance shape — adaptive goodput above
// static, adaptive abandonments below static — is asserted by
// TestFlowControlAdaptiveBeatsStatic; the benchmark records the magnitudes.
func BenchmarkFlowControlChaos(b *testing.B) {
	for _, loss := range []float64{0.05, 0.20} {
		for _, mode := range []struct {
			name string
			flow []flowctl.Option
		}{
			{"adaptive", nil},
			{"static", []flowctl.Option{flowctl.Static()}},
		} {
			b.Run(fmt.Sprintf("loss%g/%s", loss*100, mode.name), func(b *testing.B) {
				var res testbed.FlowChaosResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = testbed.RunFlowChaos(testbed.FlowChaosSpec{
						Loss: loss, Seed: 2, Flow: mode.flow,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.GoodputPerSec, "goodput-obj/s")
				b.ReportMetric(float64(res.Fetched), "fetched")
				b.ReportMetric(float64(res.RetransAbandoned), "abandoned")
				b.ReportMetric(float64(res.Retrans), "retrans")
				b.ReportMetric(float64(res.Dropped), "dropped")
			})
		}
	}
}

// --- Engine micro-benchmarks: the real costs behind the simulator's
// --- parameters (ST lookup, FIB LPM, full router forwarding path).

// benchSubscribe hands add the subscriptions of the paper's 62-player
// microbenchmark population: two client faces per area of a 5x5 map.
func benchSubscribe(b *testing.B, add func(face ndn.FaceID, cds []cd.CD)) {
	b.Helper()
	m, err := gamemap.NewGrid(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	face := ndn.FaceID(1)
	for _, a := range m.Areas() {
		for j := 0; j < 2; j++ {
			face++
			add(face, a.SubscriptionCDs())
		}
	}
}

// benchRouterWithSubscriptions builds a router whose ST holds the
// benchSubscribe population.
func benchRouterWithSubscriptions(b *testing.B) *core.Router {
	b.Helper()
	r := core.NewRouter("bench")
	var sink ndn.SliceSink // upstream propagation is not part of the fixture
	benchSubscribe(b, func(face ndn.FaceID, cds []cd.CD) {
		r.AddFace(face, core.FaceClient)
		r.HandlePacketTo(time.Unix(0, 0), face, &wire.Packet{Type: wire.TypeSubscribe, CDs: cds}, &sink)
	})
	return r
}

// BenchmarkSTMulticastLookup measures one multicast's forwarding decision
// against 62 players' subscriptions: the routers' exact index, and the
// paper's per-face Bloom filters with and without first-hop hashes.
func BenchmarkSTMulticastLookup(b *testing.B) {
	target := cd.MustParse("/3/4")
	st, blm := copss.NewST(), &copss.BloomST{}
	benchSubscribe(b, func(face ndn.FaceID, cds []cd.CD) {
		for _, c := range cds {
			st.Add(face, c)
			blm.Add(face, c)
		}
	})
	pairs := copss.PrefixHashes(target)
	for _, arm := range []struct {
		name   string
		lookup func() []ndn.FaceID
	}{
		{"index", func() []ndn.FaceID { return st.FacesFor(target) }},
		{"bloom", func() []ndn.FaceID { return blm.FacesFor(target) }},
		{"bloom-first-hop", func() []ndn.FaceID { return blm.FacesForHashed(target, pairs) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			arm.lookup() // warm scratch: the figure is the steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arm.lookup()
			}
		})
	}
}

// BenchmarkRouterMulticastPath measures the full G-COPSS data path at a
// router hosting an RP: decapsulation-equivalent dispatch plus fan-out.
func BenchmarkRouterMulticastPath(b *testing.B) {
	r := benchRouterWithSubscriptions(b)
	var sink ndn.SliceSink
	if err := r.BecomeRPTo(copss.RPInfo{
		Name:     "/rp",
		Prefixes: copss.PartitionPrefixes([]string{"1", "2", "3", "4", "5"}),
		Seq:      1,
	}, &sink); err != nil {
		b.Fatal(err)
	}
	pkt := &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{cd.MustParse("/3/4")},
		Origin:  "p",
		Payload: make([]byte, 200),
	}
	now := time.Unix(0, 0)
	r.HandlePacketTo(now, 2, pkt, &sink) // warm scratch and caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		r.HandlePacketTo(now, 2, pkt, &sink)
	}
}

// BenchmarkRouterMulticastBurst measures the burst data path at the same
// router as BenchmarkRouterMulticastPath: a burst of hashed multicasts
// arriving on a router face is grouped by CD so one ST lookup
// and one fan-out face set serve the whole group, each packet forwarded
// as received. The ns/pkt metric is the amortized per-packet cost —
// the acceptance criterion is >= 2x below the single-packet path at width 32.
func BenchmarkRouterMulticastBurst(b *testing.B) {
	for _, width := range []int{1, 8, 16, 32} {
		b.Run(fmt.Sprintf("width%d", width), func(b *testing.B) {
			r := benchRouterWithSubscriptions(b)
			var sink ndn.SliceSink
			if err := r.BecomeRPTo(copss.RPInfo{
				Name:     "/rp",
				Prefixes: copss.PartitionPrefixes([]string{"1", "2", "3", "4", "5"}),
				Seq:      1,
			}, &sink); err != nil {
				b.Fatal(err)
			}
			r.AddFace(1000, core.FaceRouter)
			c := cd.MustParse("/3/4")
			pkts := make([]*wire.Packet, width)
			for i := range pkts {
				pkts[i] = &wire.Packet{
					Type:    wire.TypeMulticast,
					CDs:     []cd.CD{c},
					Origin:  "p",
					Seq:     uint64(i + 1),
					Payload: make([]byte, 200),
				}
			}
			now := time.Unix(0, 0)
			r.HandleBurst(now, 1000, pkts, &sink) // warm scratch and caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Reset()
				r.HandleBurst(now, 1000, pkts, &sink)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(width), "ns/pkt")
		})
	}
}

// BenchmarkAppendEncodeBurst measures packing a whole burst into one reused
// frame buffer — the transport's per-flush cost. Steady state must be
// allocation-free (the 0-alloc reuse test in internal/wire pins it; this
// records the magnitude in the artifact).
func BenchmarkAppendEncodeBurst(b *testing.B) {
	pkts := make([]*wire.Packet, 32)
	for i := range pkts {
		pkts[i] = &wire.Packet{
			Type:    wire.TypeMulticast,
			CDs:     []cd.CD{cd.MustParse("/3/4")},
			Origin:  "player17",
			Seq:     uint64(i + 1),
			Payload: make([]byte, 200),
			SentAt:  123456789,
		}
	}
	buf, err := wire.AppendEncodeBurst(nil, pkts) // grow to the burst's size once
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.AppendEncodeBurst(buf[:0], pkts)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pkts)), "ns/pkt")
}

// BenchmarkTraceGeneration measures synthetic-trace throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	m, err := gamemap.NewGrid(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	world := gamemap.NewWorld(m)
	if err := world.PopulateObjects(gamemap.PaperObjectCounts(), 0, nil); err != nil {
		b.Fatal(err)
	}
	cfg := trace.PaperConfig()
	cfg.TotalUpdates = 100_000
	cfg.Duration = time.Hour
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		tr, err := trace.Generate(world, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Updates) != 100_000 {
			b.Fatal("short trace")
		}
	}
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkWireRoundTrip measures packet encode+decode, the per-hop
// serialization cost of the TCP deployment.
func BenchmarkWireRoundTrip(b *testing.B) {
	pkt := &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{cd.MustParse("/3/4")},
		Origin:  "player17",
		Seq:     42,
		Payload: make([]byte, 200),
		SentAt:  123456789,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := wire.Encode(pkt)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterDistribute measures the zero-copy multicast fan-out in
// isolation: one packet arriving on a router face, N subscribed client
// faces. The allocation count must stay flat as N grows — one shared
// forwarding copy, never N clones.
func BenchmarkRouterDistribute(b *testing.B) {
	// Sub-benchmark names avoid a trailing -<number>, which benchmark tooling
	// mistakes for the GOMAXPROCS suffix on single-CPU runners.
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("%dfaces", n), func(b *testing.B) {
			r := core.NewRouter("bench")
			r.AddFace(1000, core.FaceRouter)
			sub := &wire.Packet{Type: wire.TypeSubscribe, CDs: []cd.CD{cd.MustParse("/1")}}
			var sink ndn.SliceSink
			for i := 0; i < n; i++ {
				f := ndn.FaceID(i + 1)
				r.AddFace(f, core.FaceClient)
				r.HandlePacketTo(time.Unix(0, 0), f, sub, &sink)
			}
			pkt := &wire.Packet{
				Type:    wire.TypeMulticast,
				CDs:     []cd.CD{cd.MustParse("/1/2")},
				Origin:  "p",
				Payload: make([]byte, 200),
			}
			now := time.Unix(1, 0)
			// The hot path pushes into a reused sink, exactly as the testbed
			// does.
			r.HandlePacketTo(now, 1000, pkt, &sink) // warm scratch and caches
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink.Reset()
				r.HandlePacketTo(now, 1000, pkt, &sink)
			}
		})
	}
}

// BenchmarkAppendEncode measures serialization into a reused buffer, the
// transport's per-send cost with the pooled encode path: zero allocations
// once the buffer has grown to frame size.
func BenchmarkAppendEncode(b *testing.B) {
	pkt := &wire.Packet{
		Type:    wire.TypeMulticast,
		CDs:     []cd.CD{cd.MustParse("/3/4")},
		Origin:  "player17",
		Seq:     42,
		Payload: make([]byte, 200),
		SentAt:  123456789,
	}
	buf := make([]byte, 0, wire.Size(pkt))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.AppendEncode(buf[:0], pkt)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}
