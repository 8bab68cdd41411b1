package testbed

import (
	"runtime"
	"testing"
	"time"
)

// backboneAllocBudget bounds heap allocations per delivery of a 200-player,
// 1 s PaperBackboneSetup run, set-up included: 4.48 measured (linux/amd64,
// go1.24) plus 20 %. A router hop that copies the packet it forwards costs
// about 1.8 more per delivery at this size, so reintroducing one fails here
// rather than only in the repository benchmark.
const backboneAllocBudget = 5.4

// TestBackboneAllocBudget runs the paper backbone once to warm the heap and
// the scheduler, then counts the mallocs of a second identical run.
func TestBackboneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if testing.Short() {
		t.Skip("paper backbone run in -short mode")
	}
	run := func() (deliveries int, mallocs uint64) {
		s, err := PaperBackboneSetup(200, time.Second, 1)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunBackbone(s)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res.Obs.Deliveries, after.Mallocs - before.Mallocs
	}
	run()
	deliveries, mallocs := run()
	if deliveries == 0 {
		t.Fatal("no deliveries")
	}
	if per := float64(mallocs) / float64(deliveries); per > backboneAllocBudget {
		t.Errorf("%d mallocs for %d deliveries = %.3f per delivery, budget %.2f", mallocs, deliveries, per, backboneAllocBudget)
	}
}
