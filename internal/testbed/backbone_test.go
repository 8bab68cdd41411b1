package testbed

import (
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/topo"
)

// backboneCell runs the small backbone scenario at a given worker count.
// faulted adds a loss+reorder faultnet spec on every link and the staged RP
// migration, so the determinism fingerprint covers ARQ retransmissions and
// the handoff sequence too.
func backboneCell(t *testing.T, workers int, seed int64, faulted bool) *BackboneResult {
	t.Helper()
	s, err := SmallBackboneSetup(96, 2*time.Second, seed)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = workers
	s.Drain = 3 * time.Second
	if faulted {
		s.FaultSpec = "*:only=ctl,loss=0.05,reorder=0.2"
		s.FaultSeed = seed
		s.Migrate = true
	}
	res, err := RunBackbone(s)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBackboneDeterminism is the cross-worker property suite of the adaptive
// lookahead: workers ∈ {1, 2, 4, 8} × three seeds × {clean, faulted} must
// produce bit-identical observables — delivery hash and counts, latency mean
// bits, fault trace hash, RP-migration delivery sequence, retransmissions.
// The -workers flag (shared with the chaos suite) adds one extra count to
// the sweep, letting CI matrix legs widen it without recompiling.
func TestBackboneDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("backbone determinism sweep is slow")
	}
	counts := []int{1, 2, 4, 8}
	if *chaosWorkers > 1 {
		seen := false
		for _, c := range counts {
			seen = seen || c == *chaosWorkers
		}
		if !seen {
			counts = append(counts, *chaosWorkers)
		}
	}
	for _, faulted := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 3} {
			base := backboneCell(t, counts[0], seed, faulted)
			if base.Obs.Published == 0 || base.Obs.Deliveries == 0 {
				t.Fatalf("seed=%d faulted=%v: degenerate baseline %+v", seed, faulted, base.Obs)
			}
			if faulted {
				if base.Obs.TraceHash == 0 {
					t.Errorf("seed=%d: faulted run produced no fault trace", seed)
				}
				if base.Obs.RPDeliveriesNew == 0 {
					t.Errorf("seed=%d: migration never activated the backup RP", seed)
				}
			}
			for _, w := range counts[1:] {
				got := backboneCell(t, w, seed, faulted)
				if got.Obs != base.Obs {
					t.Errorf("seed=%d faulted=%v: workers=%d diverged from workers=%d\n got %+v\nwant %+v",
						seed, faulted, w, counts[0], got.Obs, base.Obs)
				}
			}
		}
	}
}

// TestBackboneSeedsDiffer guards the fingerprint's liveness: if two seeds
// produced the same delivery hash, the determinism suite would be comparing
// constants.
func TestBackboneSeedsDiffer(t *testing.T) {
	a := backboneCell(t, 2, 11, false)
	b := backboneCell(t, 2, 12, false)
	if a.Obs.DeliveryHash == b.Obs.DeliveryHash {
		t.Fatalf("seeds 11 and 12 produced the same delivery hash %#x", a.Obs.DeliveryHash)
	}
}

// TestBackbonePartitionAgreement pins the routing/assignment contract: the
// shard the testbed routes a node's deliveries to (link.toShard) must be the
// shard topo.Partition assigned that node to, for every link in the wired
// backbone.
func TestBackbonePartitionAgreement(t *testing.T) {
	const workers = 4
	g, _, _, err := topo.Backbone(topo.PaperBackbone())
	if err != nil {
		t.Fatal(err)
	}
	assign := topo.Partition(g, workers)
	tb := New(WithWorkers(workers))
	for id := 0; id < g.NodeCount(); id++ {
		tb.AddNodeOn(g.Name(topo.NodeID(id)), assign[id], nil, nil, 0)
	}
	for a := topo.NodeID(0); a < topo.NodeID(g.NodeCount()); a++ {
		for _, b := range g.Neighbors(a) {
			if b < a {
				continue
			}
			d, _ := g.LinkDelay(a, b)
			if err := tb.Connect(g.Name(a), 1+ndn.FaceID(b), g.Name(b), 1+ndn.FaceID(a), time.Duration(d*float64(time.Millisecond))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, node := range tb.nodes {
		for _, l := range node.links {
			if l == nil {
				continue
			}
			if tb.list[l.toIdx].name != l.to {
				t.Errorf("link %s→%s carries index %d, which is node %s", name, l.to, l.toIdx, tb.list[l.toIdx].name)
			}
			to, ok := tb.nodes[l.to]
			if !ok {
				t.Fatalf("link from %s to unknown node %s", name, l.to)
			}
			if wantShard := to.shard; l.toShard != wantShard {
				t.Errorf("link %s→%s routes to shard %d, assignment says %d", name, l.to, l.toShard, wantShard)
			}
		}
	}
	// And the assignment the links agree with is the partition itself.
	for id := 0; id < g.NodeCount(); id++ {
		if got := tb.nodes[g.Name(topo.NodeID(id))].shard; got != assign[id] {
			t.Errorf("node %s on shard %d, partition assigned %d", g.Name(topo.NodeID(id)), got, assign[id])
		}
	}
}

// TestBackboneGolden pins the full observable fingerprint of three small
// backbone scenarios to literals recorded at commit 32755a7, before the event
// heap, the node/link indexing and the Bloom probe were rebuilt. The
// determinism suites above only compare worker counts with each other, so a
// change that reorders events the same way at every count passes them; it
// cannot pass this.
func TestBackboneGolden(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		migrate bool
		want    BackboneObservables
	}{
		{name: "clean", want: BackboneObservables{
			Published: 444, Deliveries: 60249, DeliveryHash: 0x34e452d7bb391ca7,
			LatencyMeanBits: 0x407bbb41d0e95768, RPDeliveriesOld: 0x1bc,
			PacketEvents: 0x11cc7, Bytes: 2.044377e+07}},
		{name: "loss", spec: "loss=0.05", want: BackboneObservables{
			Published: 444, Deliveries: 44719, DeliveryHash: 0x230e76ffdd1c7e24,
			LatencyMeanBits: 0x40714e8cfbbfe1ce, RPDeliveriesOld: 0x17e,
			TraceHash: 0xa484e090ca17460, PacketEvents: 0xd66d, Bytes: 1.5341561e+07}},
		{name: "migrate", migrate: true, want: BackboneObservables{
			Published: 444, Deliveries: 68585, DeliveryHash: 0xf50612321dfdb1bb,
			LatencyMeanBits: 0x40832b54bf3ef6e4, RPDeliveriesOld: 0x161, RPDeliveriesNew: 0x5b,
			Retransmissions: 0x2a, PacketEvents: 0x1538a, Bytes: 2.4021964e+07}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			s, err := SmallBackboneSetup(400, 2*time.Second, 7)
			if err != nil {
				t.Fatal(err)
			}
			s.Workers = workers
			s.FaultSpec, s.FaultSeed = c.spec, 3
			s.Migrate = c.migrate
			res, err := RunBackbone(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Obs != c.want {
				t.Errorf("%s workers=%d:\n got %#v\nwant %#v", c.name, workers, res.Obs, c.want)
			}
		}
	}
}
