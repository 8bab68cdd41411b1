package testbed

import (
	"fmt"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/event"
	"github.com/icn-gaming/gcopss/internal/ndn"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// TestWorkersReproduceOneShardTrace is the parallel-correctness
// acceptance check: the chaos acceptance cell (5% loss, reordering,
// stage-B partition) must produce the bit-identical result — fault trace
// hash, delivery counts, retransmissions, fetch outcome — with one shard
// (the loop run inline) and with many, across several seeds.
func TestWorkersReproduceOneShardTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay matrix is slow")
	}
	seeds := []int64{1, 7, 13}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			one := runChaosCellWorkers(t, 0.05, true, "B", seed, 1)
			for _, workers := range []int{2, 4, 8} {
				got := runChaosCellWorkers(t, 0.05, true, "B", seed, workers)
				if got != one {
					t.Errorf("workers=%d diverged from one shard:\n  one %+v\n  got %+v",
						workers, one, got)
				}
			}
		})
	}
}

// TestChaosHandoffStagesWorkers4 drives the stage-A/B/C handoff cells under
// four workers; running it with -race proves the window barriers and
// mailbox handoff are properly synchronized.
func TestChaosHandoffStagesWorkers4(t *testing.T) {
	for _, stage := range []string{"A", "B", "C"} {
		stage := stage
		t.Run("part="+stage, func(t *testing.T) {
			res := runChaosCellWorkers(t, 0.05, true, stage, 7, 4)
			if res.missing > 0 {
				t.Errorf("stage %s lost %d deliveries under 4 workers", stage, res.missing)
			}
			if !res.fetchDone && !res.fetchFailed {
				t.Errorf("stage %s: QR fetch never terminated", stage)
			}
		})
	}
}

// TestShardedTieBreakOrdering pins the canonical same-timestamp ordering of
// the sharded scheduler: node events tie-break on their key (the testbed's
// linkID<<32|seq), and a global event at the same timestamp runs before
// any node event — at every worker count.
func TestShardedTieBreakOrdering(t *testing.T) {
	at := time.Unix(0, 0).Add(time.Millisecond)
	for _, workers := range []int{1, 2, 4} {
		var order []string
		s := event.NewSharded(time.Unix(0, 0), workers)
		record := func(tag string) event.CallHandler {
			return func(time.Time, event.Payload) { order = append(order, tag) }
		}
		// Post in scrambled order; keys fix the execution order. All events
		// land on shard 0 so the recording slice needs no synchronization.
		s.PostNode(0, 0, at, 3<<32|1, record("d"), event.Payload{})
		s.PostNode(0, 0, at, 1<<32|2, record("b"), event.Payload{})
		s.At(at, func(time.Time) { order = append(order, "g") })
		s.PostNode(0, 0, at, 1<<32|1, record("a"), event.Payload{})
		s.PostNode(0, 0, at, 2<<32|1, record("c"), event.Payload{})
		s.RunUntil(at.Add(time.Second))
		want := []string{"g", "a", "b", "c", "d"}
		if fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("workers=%d order = %v, want %v", workers, order, want)
		}
	}
}

// TestWindowLookaheadInvariant checks the conservative-window contract end
// to end on a two-node ping-pong: with a 1 ms link, every delivery lands at
// least one lookahead after the event that produced it, and the sharded run
// (nodes on distinct shards, so every post crosses shards) matches the
// one-shard timings exactly.
func TestWindowLookaheadInvariant(t *testing.T) {
	run := func(workers int) []time.Duration {
		tb := New(WithWorkers(workers))
		var arrivals []time.Duration
		t0 := time.Unix(0, 0)
		bounce := func(now time.Time, _ ndn.FaceID, pkt *wire.Packet, sink ndn.ActionSink) {
			arrivals = append(arrivals, now.Sub(t0))
			if pkt.Seq < 8 {
				cp := *pkt
				cp.Seq++
				sink.Emit(ndn.Action{Face: 1, Packet: &cp})
			}
		}
		tb.AddNode("a", bounce, func(*wire.Packet) time.Duration { return 0 }, 0)
		tb.AddNode("b", bounce, func(*wire.Packet) time.Duration { return 0 }, 0)
		if err := tb.Connect("a", 1, "b", 1, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		tb.Inject(t0, "a", 1, &wire.Packet{Type: wire.TypeInterest, Seq: 1})
		if err := tb.Run(t0.Add(time.Second), 0); err != nil {
			t.Fatal(err)
		}
		return arrivals
	}
	seq := run(1)
	if len(seq) != 8 {
		t.Fatalf("one-shard run handled %d packets, want 8", len(seq))
	}
	for i, d := range seq {
		// Injection at t=0, then one 1 ms hop per bounce.
		if want := time.Duration(i) * time.Millisecond; d != want {
			t.Errorf("arrival %d at %v, want %v", i, d, want)
		}
	}
	// With two workers the two nodes are on different shards; arrivals are
	// recorded into the same slice, which is only safe because the ping-pong
	// alternates — the point here is the timing equality, the race detector
	// covers synchronization in the chaos tests.
	par := run(2)
	if fmt.Sprint(par) != fmt.Sprint(seq) {
		t.Errorf("2-worker timings %v != one-shard %v", par, seq)
	}
}
