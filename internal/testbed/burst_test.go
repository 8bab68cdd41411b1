package testbed

import (
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// burstTraceEntry is one delivery observed at the trace sink node.
type burstTraceEntry struct {
	at  int64
	seq uint64
}

// burstTrace runs a 3-node chain src→mid→dst with mid and dst on different
// shards, so mid's in-window emissions exercise the tx rings when burst mode
// is on: src fans one injected packet into 3 copies, and mid re-emits 2
// packets per copy toward dst. It returns dst's delivery trace, the aggregate
// stats and the testbed (for the coalescing counter).
func burstTrace(t *testing.T, workers int, burst bool) ([]burstTraceEntry, uint64, float64, *Testbed) {
	t.Helper()
	opts := []Option{WithWorkers(workers)}
	if burst {
		opts = append(opts, WithBurst())
	}
	tb := New(opts...)

	tb.AddNodeOn("src", 0, func(_ time.Time, _ ndn.FaceID, pkt *wire.Packet, out ndn.ActionSink) {
		for i := uint64(1); i <= 3; i++ {
			cp := *pkt
			cp.Seq = i
			out.Emit(ndn.Action{Face: 1, Packet: &cp})
		}
	}, func(*wire.Packet) time.Duration { return 100 * time.Microsecond }, 0)
	tb.AddNodeOn("mid", workers-1, func(_ time.Time, _ ndn.FaceID, pkt *wire.Packet, out ndn.ActionSink) {
		for j := uint64(1); j <= 2; j++ {
			cp := *pkt
			cp.Seq = pkt.Seq*10 + j
			out.Emit(ndn.Action{Face: 1, Packet: &cp})
		}
	}, func(*wire.Packet) time.Duration { return time.Millisecond }, 100*time.Microsecond)
	var got []burstTraceEntry
	tb.AddNodeOn("dst", 0, func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, _ ndn.ActionSink) {
		got = append(got, burstTraceEntry{at: now.UnixNano(), seq: pkt.Seq})
	}, func(*wire.Packet) time.Duration { return 10 * time.Microsecond }, 0)
	if err := tb.Connect("src", 1, "mid", 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := tb.Connect("mid", 1, "dst", 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}

	t0 := tb.Now()
	tb.Inject(t0, "src", 0, &wire.Packet{Type: wire.TypeMulticast, Name: "/x", Origin: "p"})
	if err := tb.Run(t0.Add(time.Second), 0); err != nil {
		t.Fatal(err)
	}
	events, bytes := tb.Stats()
	return got, events, bytes, tb
}

// TestBurstMatchesPerPacketTrace pins the burst data plane's contract: the
// delivery trace — arrival times and packet identities in execution order —
// and the aggregate stats must be bit-identical between burst and per-packet
// modes at every worker count, while the burst run actually coalesces
// (mid's two same-finish emissions toward dst share one ring run).
func TestBurstMatchesPerPacketTrace(t *testing.T) {
	base, baseEvents, baseBytes, _ := burstTrace(t, 2, false)
	if len(base) != 6 {
		t.Fatalf("baseline delivered %d packets, want 6", len(base))
	}
	for _, cfg := range []struct {
		workers int
		burst   bool
	}{{2, true}, {1, true}, {1, false}} {
		got, events, bytes, tb := burstTrace(t, cfg.workers, cfg.burst)
		if len(got) != len(base) {
			t.Fatalf("workers=%d burst=%v: %d deliveries, want %d", cfg.workers, cfg.burst, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("workers=%d burst=%v: delivery %d = %+v, want %+v", cfg.workers, cfg.burst, i, got[i], base[i])
			}
		}
		if events != baseEvents || bytes != baseBytes {
			t.Errorf("workers=%d burst=%v: stats %d/%v, want %d/%v", cfg.workers, cfg.burst, events, bytes, baseEvents, baseBytes)
		}
		switch {
		case cfg.workers > 1 && cfg.burst && tb.coalesced == 0:
			t.Error("parallel burst run never coalesced a ring run")
		case (cfg.workers == 1 || !cfg.burst) && tb.coalesced != 0:
			t.Errorf("workers=%d burst=%v coalesced %d bursts, want 0", cfg.workers, cfg.burst, tb.coalesced)
		}
	}
}

// TestBurstRingsDrainEveryBarrier pins the ring lifecycle: after Run returns,
// every link ring is empty and every dirty list drained — staged work never
// outlives the window that staged it.
func TestBurstRingsDrainEveryBarrier(t *testing.T) {
	_, _, _, tb := burstTrace(t, 2, true)
	for _, n := range tb.list {
		for _, l := range n.links {
			if l != nil && len(l.ring) != 0 {
				t.Errorf("node %s: link to %s holds %d staged entries after Run", n.name, l.to, len(l.ring))
			}
		}
	}
	for s, links := range tb.dirty {
		if len(links) != 0 {
			t.Errorf("shard %d dirty list holds %d links after Run", s, len(links))
		}
	}
}
