package testbed

import (
	"math"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/flowctl"
)

// microFingerprint is the comparable outcome of one microbenchmark run.
type microFingerprint struct {
	Published, Deliveries int
	PacketEvents          uint64
	Bytes                 float64
	LatencyN              int
	LatencySumBits        uint64
}

// TestMicrobenchGolden pins the Fig. 3b lab scenarios — the three Fig. 4
// systems, the flow-control chaos run and the delivery-mode ablation — to
// literals recorded at commit c72ed35, before the lab topology was rebuilt
// from topo.Benchmark. TestFig4Ordering and friends only check shapes, and
// TestBackboneGolden only the backbone; a rewiring that renumbered a face
// or reordered a link would pass them and fail this.
func TestMicrobenchGolden(t *testing.T) {
	systems := []struct {
		name string
		run  func(*Setup) (*MicroResult, error)
		want microFingerprint
	}{
		{"gcopss", RunGCOPSS, microFingerprint{Published: 426, Deliveries: 9178, PacketEvents: 12602,
			Bytes: 3.6124e+06, LatencyN: 9178, LatencySumBits: 0x410068c2c25a6825}},
		{"ipserver", RunIPServer, microFingerprint{Published: 426, Deliveries: 9178, PacketEvents: 31348,
			Bytes: 8.262828e+06, LatencyN: 9178, LatencySumBits: 0x411c472f3ce4eb02}},
		{"ndn", RunNDN, microFingerprint{Published: 426, Deliveries: 8764, PacketEvents: 99541,
			Bytes: 8.625681e+06, LatencyN: 8764, LatencySumBits: 0x41a28baf48a55dfb}},
	}
	for _, sys := range systems {
		for _, workers := range []int{1, 2} {
			s, err := ScaledSetup(20*time.Second, 99)
			if err != nil {
				t.Fatal(err)
			}
			s.Workers = workers
			res, err := sys.run(s)
			if err != nil {
				t.Fatal(err)
			}
			got := microFingerprint{
				Published: res.Published, Deliveries: res.Deliveries,
				PacketEvents: res.PacketEvents, Bytes: res.Bytes,
				LatencyN: res.Latency.N(), LatencySumBits: math.Float64bits(res.Latency.Sum()),
			}
			if got != sys.want {
				t.Errorf("%s workers=%d:\n got %#v\nwant %#v", sys.name, workers, got, sys.want)
			}
		}
	}

	chaos := []struct {
		name string
		flow []flowctl.Option
		want FlowChaosResult
	}{
		{"adaptive", nil, FlowChaosResult{Delivered: 480, Fetched: 64, GoodputPerSec: 8.257744861489233,
			FetchDoneAt: 7750300000, FetchDone: true, FetchRetries: 65, Retrans: 10, Dropped: 43,
			TraceHash: 0xd28ff08a9e027d0b}},
		{"static", []flowctl.Option{flowctl.Static()}, FlowChaosResult{Delivered: 480, Fetched: 2,
			GoodputPerSec: 0.16835016835016833, FetchFailed: true, FetchRetries: 16, Retrans: 8,
			RetransAbandoned: 1, Dropped: 26, TraceHash: 0xa524856837381505}},
	}
	for _, c := range chaos {
		got, err := RunFlowChaos(FlowChaosSpec{Loss: 0.05, Seed: 3, Workers: *chaosWorkers, Flow: c.flow})
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("flow chaos %s:\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}

	modes, err := RunDeliveryComparison([]int{100, 1000}, 10, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []DeliveryModeResult{
		{Mode: core.OneStep, PayloadBytes: 100, MeanLatencyMs: 15.23333333333333, NetworkBytes: 17406, Deliveries: 50},
		{Mode: core.TwoStep, PayloadBytes: 100, MeanLatencyMs: 27.85333333333333, NetworkBytes: 17356, Deliveries: 15},
		{Mode: core.OneStep, PayloadBytes: 1000, MeanLatencyMs: 15.23333333333333, NetworkBytes: 98501, Deliveries: 50},
		{Mode: core.TwoStep, PayloadBytes: 1000, MeanLatencyMs: 27.85333333333333, NetworkBytes: 57911, Deliveries: 15},
	}
	if len(modes) != len(wantModes) {
		t.Fatalf("delivery comparison: %d cells, want %d:\n got %#v", len(modes), len(wantModes), modes)
	}
	for i := range modes {
		if modes[i] != wantModes[i] {
			t.Errorf("delivery cell %d:\n got %#v\nwant %#v", i, modes[i], wantModes[i])
		}
	}
}
