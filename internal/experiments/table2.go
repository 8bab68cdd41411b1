package experiments

import (
	"fmt"
	"strings"

	"github.com/icn-gaming/gcopss/internal/sim"
	"github.com/icn-gaming/gcopss/internal/stats"
)

// Table2Row is one system of Table II.
type Table2Row struct {
	Kind      string
	LatencyMs float64
	LoadGB    float64
}

// Table2Result compares IP-Server (6 servers), G-COPSS (6 RPs) and
// hybrid-G-COPSS (6 IP multicast groups) on the whole event trace with no
// congestion.
type Table2Result struct {
	Provenance Provenance
	Rows       []Table2Row
	Updates    int
}

// Table2 runs the full (scaled) trace through the three systems at its
// natural rate.
func Table2(w *Workbench) (*Table2Result, error) {
	updates := w.Trace.Updates
	costs := sim.PaperCosts()
	res := &Table2Result{Provenance: w.Opts.provenance(), Updates: len(updates)}

	// One heterogeneous runner list — the sim.Runner interface is what lets
	// the three architectures share a single replay loop here.
	systems := []struct {
		kind   string
		runner sim.Runner
	}{
		{"IP Server", sim.ServerConfig{Servers: sim.DefaultServerPlacement(w.Env, 6), Costs: costs}},
		{"G-COPSS", sim.GCOPSSConfig{RPs: sim.DefaultRPPlacement(w.Env, 6), Costs: costs}},
		{"hybrid-G-COPSS", sim.HybridConfig{Groups: 6, Costs: costs}},
	}
	for _, s := range systems {
		r, err := s.runner.Run(w.Env, updates)
		if err != nil {
			return nil, fmt.Errorf("experiments: table2 %s: %w", s.runner.Name(), err)
		}
		res.Rows = append(res.Rows, Table2Row{Kind: s.kind, LatencyMs: r.LatencyMeanMs, LoadGB: r.Bytes / 1e9})
	}
	return res, nil
}

// Row finds a row by kind.
func (r *Table2Result) Row(kind string) (Table2Row, bool) {
	for _, row := range r.Rows {
		if row.Kind == kind {
			return row, true
		}
	}
	return Table2Row{}, false
}

// Render formats Table II.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II — full trace (%d updates), 6 servers / 6 RPs / 6 IP multicast groups (%s)\n", r.Updates, r.Provenance)
	tbl := &stats.Table{Headers: []string{"type", "update latency (ms)", "network load (GB)"}}
	for _, row := range r.Rows {
		tbl.AddRow(row.Kind, fmt.Sprintf("%.2f", row.LatencyMs), fmt.Sprintf("%.3f", row.LoadGB))
	}
	b.WriteString(tbl.String())
	return b.String()
}
