// Hotspot: the automatic RP load balancing of Section IV-B, demonstrated on
// the trace-driven simulator. A single RP serves the whole world while the
// evening peak builds; when its queue crosses the threshold it splits the
// hot CDs to new RPs (the paper's run splits twice), and the update latency
// collapses back to the uncongested level.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/icn-gaming/gcopss/internal/gamemap"
	"github.com/icn-gaming/gcopss/internal/sim"
	"github.com/icn-gaming/gcopss/internal/topo"
	"github.com/icn-gaming/gcopss/internal/trace"
)

func main() {
	m, err := gamemap.NewGrid(5, 5)
	check(err)
	world := gamemap.NewWorld(m)
	check(world.PopulateObjects(gamemap.PaperObjectCounts(), 0, rand.New(rand.NewSource(1))))

	cfg := trace.PaperConfig()
	cfg.TotalUpdates = 40_000
	cfg.Duration = time.Hour
	tr, err := trace.Generate(world, cfg)
	check(err)

	bb := topo.PaperBackbone()
	env, err := sim.NewEnv(world, tr, bb)
	check(err)

	// The evening peak: inter-arrival ramps 3.2 → 1.6 ms (mean 2.4 ms);
	// one 3.3 ms RP cannot keep up.
	updates := sim.CompressRamp(tr.Updates, 3.2, 1.6)
	costs := sim.PaperCosts()

	fixed, err := sim.GCOPSSConfig{
		RPs:   sim.DefaultRPPlacement(env, 1),
		Costs: costs,
	}.Run(env, updates)
	check(err)

	auto, err := sim.GCOPSSConfig{
		RPs:   sim.DefaultRPPlacement(env, 1),
		Costs: costs,
		Balance: &sim.AutoBalance{
			QueueThreshold: 20,
			Window:         1000,
			MaxRPs:         6,
			CandidateNodes: env.Cores[5:],
			MigrationMs:    50,
			Seed:           1,
		},
	}.Run(env, updates)
	check(err)

	fmt.Println("single overloaded RP vs automatic balancing (Fig. 5b/5c):")
	fmt.Printf("  fixed 1 RP : mean latency %8.1f ms, worst queue %5d packets\n",
		fixed.LatencyMeanMs, fixed.MaxQueueLen)
	fmt.Printf("  auto       : mean latency %8.1f ms, worst queue %5d packets, %d RPs at the end\n",
		auto.LatencyMeanMs, auto.MaxQueueLen, auto.FinalRPs)
	for _, s := range auto.Splits {
		fmt.Printf("    split at packet %6d (t=%.1fs): moved %v -> new RP (now %d RPs)\n",
			s.PacketIndex, s.AtMs/1000, s.Moved, s.RPCount)
	}

	fmt.Println("\nlatency along the run (packet index -> avg update latency):")
	n := len(auto.PerUpdateAvg)
	for i := 0; i < n; i += n / 12 {
		bar := int(auto.PerUpdateAvg[i] / 10)
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("  %6d %8.1fms %s\n", i, auto.PerUpdateAvg[i], stars(bar))
	}
	fmt.Printf("\nimprovement: %.0fx lower mean latency with auto-balancing\n",
		fixed.LatencyMeanMs/auto.LatencyMeanMs)
}

func stars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '*'
	}
	return string(out)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
