package testbed

import (
	"testing"
	"time"
)

// backboneCell runs the small backbone scenario. faulted adds a loss+reorder
// faultnet spec on every link and the staged RP migration, so the
// determinism fingerprint covers ARQ retransmissions and the handoff
// sequence too.
func backboneCell(t *testing.T, seed int64, faulted bool) *BackboneResult {
	t.Helper()
	s, err := SmallBackboneSetup(96, 2*time.Second, seed)
	if err != nil {
		t.Fatal(err)
	}
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

// TestBackboneDeterminism: three seeds × {clean, faulted}, each run twice,
// must reproduce bit-identical observables — delivery hash and counts,
// latency mean bits, fault trace hash, RP-migration delivery sequence,
// retransmissions — so nothing in a run depends on map order, pointer
// values or the wall clock.
func TestBackboneDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("backbone determinism sweep is slow")
	}
	for _, faulted := range []bool{false, true} {
		for _, seed := range []int64{1, 2, 3} {
			base := backboneCell(t, seed, faulted)
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
			if got := backboneCell(t, seed, faulted); got.Obs != base.Obs {
				t.Errorf("seed=%d faulted=%v: rerun diverged\n got %+v\nwant %+v",
					seed, faulted, got.Obs, base.Obs)
			}
		}
	}
}

// TestBackboneSeedsDiffer guards the fingerprint's liveness: if two seeds
// produced the same delivery hash, the determinism suite would be comparing
// constants.
func TestBackboneSeedsDiffer(t *testing.T) {
	a := backboneCell(t, 11, false)
	b := backboneCell(t, 12, false)
	if a.Obs.DeliveryHash == b.Obs.DeliveryHash {
		t.Fatalf("seeds 11 and 12 produced the same delivery hash %#x", a.Obs.DeliveryHash)
	}
}

// TestBackboneGolden pins the full observable fingerprint of three small
// backbone scenarios to literals recorded at commit 32755a7, before the event
// heap, the node/link indexing and the Bloom probe were rebuilt. The
// determinism suite above only compares runs with each other, so a change
// that reorders events the same way every time passes it; it cannot pass
// this. Bytes alone was re-recorded twice. When the per-hop counter field
// left the wire, each packet that carried it became 6 B shorter, 7 B when its
// body length then fit a one-byte uvarint. When the first-hop hash vector
// left, every publication lost 2 + 16 B per CD prefix, inside an
// encapsulating Interest too; summing that per transmitted packet on the old
// code gives exactly the old − new deltas (clean 2 985 267, loss 2 236 815,
// migrate 3 556 862). DeliveryHash was re-recorded once, here and in
// TestPaperBackboneGolden, when the fingerprint went from byte-wise FNV to
// one mixing round per 64-bit word; every other field stayed.
func TestBackboneGolden(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		migrate bool
		want    BackboneObservables
	}{
		{name: "clean", want: BackboneObservables{
			Published: 444, Deliveries: 60249, DeliveryHash: 0x8237ec72218c33e1,
			LatencyMeanBits: 0x407bbb41d0e95768, RPDeliveriesOld: 0x1bc,
			PacketEvents: 0x11cc7, Bytes: 1.7025525e+07}},
		{name: "loss", spec: "loss=0.05", want: BackboneObservables{
			Published: 444, Deliveries: 44719, DeliveryHash: 0xe16efcd18718cbb1,
			LatencyMeanBits: 0x40714e8cfbbfe1ce, RPDeliveriesOld: 0x17e,
			TraceHash: 0xa484e090ca17460, PacketEvents: 0xd66d, Bytes: 1.2780194e+07}},
		{name: "migrate", migrate: true, want: BackboneObservables{
			Published: 444, Deliveries: 68585, DeliveryHash: 0xddcbfbc73f40b5cc,
			LatencyMeanBits: 0x40832b54bf3ef6e4, RPDeliveriesOld: 0x161, RPDeliveriesNew: 0x5b,
			Retransmissions: 0x2a, PacketEvents: 0x1538a, Bytes: 1.9948826e+07}},
	}
	for _, c := range cases {
		s, err := SmallBackboneSetup(400, 2*time.Second, 7)
		if err != nil {
			t.Fatal(err)
		}
		s.FaultSpec, s.FaultSeed = c.spec, 3
		s.Migrate = c.migrate
		res, err := RunBackbone(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Obs != c.want {
			t.Errorf("%s:\n got %#v\nwant %#v", c.name, res.Obs, c.want)
		}
	}
}

// TestPaperBackboneGolden pins the fingerprint of the repository benchmark's
// own scale — PaperBackboneSetup(2000, 5 s, 1), the 279-router backbone the
// sim-backbone workload runs — which TestBackboneGolden's 24-router cells do
// not reach: a scheduler or testbed change that reorders events only under
// a deep queue or a wide fan-out shows here. Recorded before the event queue
// was rebuilt.
func TestPaperBackboneGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale backbone run in -short mode")
	}
	s, err := PaperBackboneSetup(2000, 5*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBackbone(s)
	if err != nil {
		t.Fatal(err)
	}
	want := BackboneObservables{
		Published: 4197, Deliveries: 1201805, DeliveryHash: 0xa550f9f42af0b8bf,
		LatencyMeanBits: 0x40b3d76069ea7973, RPDeliveriesOld: 0xff0,
		PacketEvents: 0x18fa20, Bytes: 3.92229538e+08}
	if res.Obs != want {
		t.Errorf("got %#v\nwant %#v", res.Obs, want)
	}
}
