package faultnet

import (
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/wire"
)

func mustSpec(t *testing.T, s string) *Spec {
	t.Helper()
	spec, err := ParseSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func mcast(seq uint64) *wire.Packet {
	return &wire.Packet{Type: wire.TypeMulticast, Origin: "p", Seq: seq}
}

// Same (spec, seed, workload) must yield identical verdict sequences, stats
// and trace hashes.
func TestInjectorDeterminism(t *testing.T) {
	run := func() (Stats, uint64, []Verdict) {
		in := New(mustSpec(t, "loss=0.2,dup=0.1,reorder=0.3,delay=1ms,jitter=2ms"), 42)
		in.SetEpoch(time.Unix(0, 0))
		var vs []Verdict
		for i := 0; i < 500; i++ {
			link := "R1>R2"
			if i%3 == 0 {
				link = "R2>R1"
			}
			now := time.Unix(0, int64(i)*int64(time.Millisecond))
			vs = append(vs, in.Decide(now, link, mcast(uint64(i))))
		}
		return in.Stats(), in.TraceHash(), vs
	}
	s1, h1, v1 := run()
	s2, h2, v2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if h1 != h2 {
		t.Fatalf("trace hash diverged: %x vs %x", h1, h2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("verdict %d diverged: %+v vs %+v", i, v1[i], v2[i])
		}
	}
	if s1.Dropped == 0 || s1.Dupped == 0 || s1.Reordered == 0 || s1.Delayed == 0 {
		t.Fatalf("expected all fault kinds at these rates, got %+v", s1)
	}
}

// Decisions on link A must not depend on traffic volume crossing link B.
func TestInjectorPerLinkIndependence(t *testing.T) {
	verdictsOnA := func(noiseOnB int) []Verdict {
		in := New(mustSpec(t, "loss=0.3"), 7)
		in.SetEpoch(time.Unix(0, 0))
		var vs []Verdict
		for i := 0; i < 50; i++ {
			for j := 0; j < noiseOnB; j++ {
				in.Decide(time.Unix(0, 0), "B>C", mcast(0))
			}
			vs = append(vs, in.Decide(time.Unix(0, 0), "A>B", mcast(uint64(i))))
		}
		return vs
	}
	quiet := verdictsOnA(0)
	noisy := verdictsOnA(17)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("verdict %d on A changed with B's traffic: %+v vs %+v", i, quiet[i], noisy[i])
		}
	}
}

func TestInjectorLossRate(t *testing.T) {
	in := New(mustSpec(t, "loss=0.05"), 1)
	in.SetEpoch(time.Unix(0, 0))
	const n = 20000
	for i := 0; i < n; i++ {
		in.Decide(time.Unix(0, 0), "a>b", mcast(uint64(i)))
	}
	got := float64(in.Stats().Dropped) / n
	if got < 0.03 || got > 0.07 {
		t.Fatalf("loss rate %v, want ~0.05", got)
	}
}

func TestInjectorPartitionWindow(t *testing.T) {
	in := New(mustSpec(t, "part=100ms..200ms"), 1)
	epoch := time.Unix(100, 0)
	in.SetEpoch(epoch)
	cases := []struct {
		at   time.Duration
		drop bool
	}{
		{0, false},
		{99 * time.Millisecond, false},
		{100 * time.Millisecond, true},
		{150 * time.Millisecond, true},
		{199 * time.Millisecond, true},
		{200 * time.Millisecond, false}, // half-open: healed at To
		{5 * time.Second, false},
	}
	for _, tc := range cases {
		v := in.Decide(epoch.Add(tc.at), "x>y", mcast(1))
		if v.Drop != tc.drop {
			t.Errorf("at +%v: Drop=%v, want %v", tc.at, v.Drop, tc.drop)
		}
		if tc.drop && v.Reason != "partition" {
			t.Errorf("at +%v: Reason=%q, want partition", tc.at, v.Reason)
		}
	}
}

func TestInjectorClassFilterAndFirstMatchWins(t *testing.T) {
	// ctl packets lose 100%; everything else crosses untouched.
	in := New(mustSpec(t, "only=ctl,loss=1;loss=0"), 3)
	in.SetEpoch(time.Unix(0, 0))
	join := &wire.Packet{Type: wire.TypeJoin, Name: "/rpA"}
	if v := in.Decide(time.Unix(0, 0), "a>b", join); !v.Drop {
		t.Fatal("ctl packet must hit the loss=1 clause")
	}
	if v := in.Decide(time.Unix(0, 0), "a>b", mcast(1)); v.Drop {
		t.Fatal("mcast packet must fall through to the loss=0 clause")
	}
}

func TestInjectorDelayAndJitterBounds(t *testing.T) {
	in := New(mustSpec(t, "delay=1ms,jitter=2ms"), 9)
	in.SetEpoch(time.Unix(0, 0))
	for i := 0; i < 200; i++ {
		v := in.Decide(time.Unix(0, 0), "a>b", mcast(uint64(i)))
		if v.Delay < time.Millisecond || v.Delay >= 3*time.Millisecond {
			t.Fatalf("delay %v outside [1ms, 3ms)", v.Delay)
		}
	}
}

func TestInjectorInstrumentAndFlight(t *testing.T) {
	reg := obs.NewRegistry()
	in := New(mustSpec(t, "loss=1"), 5)
	in.Instrument(reg)
	in.SetEpoch(time.Unix(0, 0))
	in.Decide(time.Unix(0, 0), "a>b", mcast(1))
	if got := reg.Counter("faultnet_dropped_total").Value(); got != 1 {
		t.Fatalf("faultnet_dropped_total = %d, want 1", got)
	}
}

func TestInjectorNoSpecIsTransparent(t *testing.T) {
	in := New(nil, 0)
	for i := 0; i < 100; i++ {
		if v := in.Decide(time.Unix(0, 0), "a>b", mcast(uint64(i))); v != (Verdict{}) {
			t.Fatalf("nil spec must never fault, got %+v", v)
		}
	}
	if st := in.Stats(); st.Decided != 100 || st.Dropped != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}
