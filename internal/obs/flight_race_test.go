package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/icn-gaming/gcopss/internal/obs/trace"
)

// TestFlightReadDuringWrite hammers the flight recorder behind /flight (a
// trace.Ring of a tracer with sampling off) with concurrent writers while
// readers snapshot and dump it. Run under -race this pins the concurrency
// contract: Append, Snapshot, Dump and Recorded are all safe to interleave,
// and every snapshot observes a consistent ring (each writer's records in
// append order, no torn records).
func TestFlightReadDuringWrite(t *testing.T) {
	ring := trace.NewTracer(0, 0, 64).Ring("R1")
	const writers, perWriter, reads = 4, 2000, 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		origin := fmt.Sprintf("p%d", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				ring.Append(trace.Hop{At: int64(i), Event: trace.HopMulticast, CD: "/1/2", Origin: origin})
			}
		}()
	}
	readErr := make(chan string, 1)
	fail := func(msg string) {
		select {
		case readErr <- msg:
		default:
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reads; i++ {
			last := make(map[string]int64, writers)
			for _, h := range ring.Snapshot() {
				if h.CD != "/1/2" || h.Event != trace.HopMulticast || !strings.HasPrefix(h.Origin, "p") {
					fail(fmt.Sprintf("torn record %+v", h))
					return
				}
				if h.At <= last[h.Origin] {
					fail("snapshot not in append order for " + h.Origin)
					return
				}
				last[h.Origin] = h.At
			}
			var sb strings.Builder
			if err := ring.Dump(&sb, 16); err != nil {
				fail(err.Error())
				return
			}
			_ = ring.Recorded()
		}
	}()
	wg.Wait()
	select {
	case msg := <-readErr:
		t.Fatal(msg)
	default:
	}
	if got := ring.Recorded(); got != writers*perWriter {
		t.Errorf("Recorded() = %d, want %d", got, writers*perWriter)
	}
}
