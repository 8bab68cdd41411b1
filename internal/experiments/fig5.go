package experiments

import (
	"fmt"
	"strings"

	"github.com/icn-gaming/gcopss/internal/sim"
)

// Fig5Series is one panel of Fig. 5: per-update min/avg/max latency over
// packet index, downsampled.
type Fig5Series struct {
	Name   string
	Index  []int
	MinMs  []float32
	AvgMs  []float32
	MaxMs  []float32
	Splits []sim.SplitEvent
	MeanMs float64
	// P50Ms/P99Ms are the run's delivery-latency quantiles (log-bucket
	// interpolation over every delivery; NaN with no deliveries).
	P50Ms   float64
	P99Ms   float64
	FinalRP int
	// RPQueues reports each RP's queue-depth summary for the panel —
	// the load picture behind the latency curves.
	RPQueues []sim.RPQueueStat
}

// Fig5Result holds the three panels: 3 RPs (a), 2 RPs (b), auto (c).
type Fig5Result struct {
	Provenance Provenance
	ThreeRP    *Fig5Series
	TwoRP      *Fig5Series
	Auto       *Fig5Series
}

const fig5Points = 24

// Fig5 replays the peak workload under the three RP configurations.
func Fig5(w *Workbench) (*Fig5Result, error) {
	updates := w.peakUpdates()
	costs := sim.PaperCosts()

	run := func(name string, cfg sim.GCOPSSConfig) (*Fig5Series, error) {
		r, err := cfg.Run(w.Env, updates)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig5 %s: %w", name, err)
		}
		s := &Fig5Series{Name: name, Splits: r.Splits, MeanMs: r.LatencyMeanMs,
			P50Ms: r.LatencyP50Ms, P99Ms: r.LatencyP99Ms,
			FinalRP: r.FinalRPs, RPQueues: r.RPQueues}
		n := len(r.PerUpdateAvg)
		stride := n / fig5Points
		if stride < 1 {
			stride = 1
		}
		for i := 0; i < n; i += stride {
			s.Index = append(s.Index, i)
			s.MinMs = append(s.MinMs, r.PerUpdateMin[i])
			s.AvgMs = append(s.AvgMs, r.PerUpdateAvg[i])
			s.MaxMs = append(s.MaxMs, r.PerUpdateMax[i])
		}
		return s, nil
	}

	res := &Fig5Result{Provenance: w.Opts.provenance()}
	var err error
	if res.ThreeRP, err = run("3-RP", sim.GCOPSSConfig{RPs: sim.DefaultRPPlacement(w.Env, 3), Costs: costs}); err != nil {
		return nil, err
	}
	if res.TwoRP, err = run("2-RP", sim.GCOPSSConfig{RPs: sim.DefaultRPPlacement(w.Env, 2), Costs: costs}); err != nil {
		return nil, err
	}
	if res.Auto, err = run("auto", sim.GCOPSSConfig{
		RPs:   sim.DefaultRPPlacement(w.Env, 1),
		Costs: costs,
		Balance: &sim.AutoBalance{
			QueueThreshold: 20,
			Window:         1000,
			MaxRPs:         6,
			CandidateNodes: w.Env.Cores[5:],
			MigrationMs:    50,
			Seed:           w.Opts.Seed,
		},
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the three panels.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5 — traffic-concentration elimination (per-update latency vs packet index; %s)\n", r.Provenance)
	for _, s := range []*Fig5Series{r.ThreeRP, r.TwoRP, r.Auto} {
		fmt.Fprintf(&b, "[%s] mean=%.2fms p50=%.2fms p99=%.2fms finalRPs=%d", s.Name, s.MeanMs, s.P50Ms, s.P99Ms, s.FinalRP)
		if len(s.Splits) > 0 {
			b.WriteString(" splits at packets:")
			for _, sp := range s.Splits {
				fmt.Fprintf(&b, " %d(->%d RPs)", sp.PacketIndex, sp.RPCount)
			}
		}
		b.WriteString("\n")
		for _, q := range s.RPQueues {
			fmt.Fprintf(&b, "  queue %s@%v: max=%d mean=%.2f over %d updates\n",
				q.Name, q.Node, q.MaxDepth, q.MeanDepth, q.Updates)
		}
		b.WriteString("  packet#      min      avg      max\n")
		for i := range s.Index {
			fmt.Fprintf(&b, "  %7d  %7.1f  %7.1f  %7.1f\n", s.Index[i], s.MinMs[i], s.AvgMs[i], s.MaxMs[i])
		}
	}
	return b.String()
}
