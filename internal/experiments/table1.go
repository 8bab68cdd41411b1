package experiments

import (
	"fmt"
	"strings"

	"github.com/icn-gaming/gcopss/internal/sim"
	"github.com/icn-gaming/gcopss/internal/stats"
)

// Table1Row is one configuration of Table I.
type Table1Row struct {
	Kind      string // "G-COPSS" or "IP Server"
	Count     string // "1".."5" or "Auto"
	LatencyMs float64
	LoadGB    float64
	FinalRPs  int
	Splits    int
}

// Table1Result reproduces Table I: update latency and network load for
// 1–5 (and auto-balanced) RPs versus 1–5 servers, 414 players, the first
// 100k updates of the peak period.
type Table1Result struct {
	Provenance Provenance
	Rows       []Table1Row
	Updates    int
}

// Table1 runs the sweep.
func Table1(w *Workbench) (*Table1Result, error) {
	updates := w.peakUpdates()
	res := &Table1Result{Provenance: w.Opts.provenance(), Updates: len(updates)}
	costs := sim.PaperCosts()

	for _, n := range []int{1, 2, 3, 4, 5} {
		r, err := sim.GCOPSSConfig{
			RPs:   sim.DefaultRPPlacement(w.Env, n),
			Costs: costs,
		}.Run(w.Env, updates)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 %d RPs: %w", n, err)
		}
		res.Rows = append(res.Rows, Table1Row{
			Kind: "G-COPSS", Count: fmt.Sprintf("%d", n),
			LatencyMs: r.LatencyMeanMs, LoadGB: r.Bytes / 1e9, FinalRPs: r.FinalRPs,
		})
		if n == 2 {
			// The Auto row starts from 1 RP and lets the balancer split.
			auto, err := sim.GCOPSSConfig{
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
			}.Run(w.Env, updates)
			if err != nil {
				return nil, fmt.Errorf("experiments: table1 auto: %w", err)
			}
			res.Rows = append(res.Rows, Table1Row{
				Kind: "G-COPSS", Count: "Auto",
				LatencyMs: auto.LatencyMeanMs, LoadGB: auto.Bytes / 1e9,
				FinalRPs: auto.FinalRPs, Splits: len(auto.Splits),
			})
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5} {
		r, err := sim.ServerConfig{
			Servers: sim.DefaultServerPlacement(w.Env, n),
			Costs:   costs,
		}.Run(w.Env, updates)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 %d servers: %w", n, err)
		}
		res.Rows = append(res.Rows, Table1Row{
			Kind: "IP Server", Count: fmt.Sprintf("%d", n),
			LatencyMs: r.LatencyMeanMs, LoadGB: r.Bytes / 1e9,
		})
	}
	return res, nil
}

// Row finds a row by kind and count.
func (r *Table1Result) Row(kind, count string) (Table1Row, bool) {
	for _, row := range r.Rows {
		if row.Kind == kind && row.Count == count {
			return row, true
		}
	}
	return Table1Row{}, false
}

// Render formats Table I.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — update latency and network load vs #RPs/servers (414 players, %d peak updates; %s)\n", r.Updates, r.Provenance)
	tbl := &stats.Table{Headers: []string{"type", "# RP/server", "update latency", "network load (GB)", "final RPs", "splits"}}
	for _, row := range r.Rows {
		extra1, extra2 := "", ""
		if row.Kind == "G-COPSS" {
			extra1 = fmt.Sprintf("%d", row.FinalRPs)
			if row.Count == "Auto" {
				extra2 = fmt.Sprintf("%d", row.Splits)
			}
		}
		tbl.AddRow(row.Kind, row.Count, stats.Ms(row.LatencyMs), fmt.Sprintf("%.3f", row.LoadGB), extra1, extra2)
	}
	b.WriteString(tbl.String())
	return b.String()
}
