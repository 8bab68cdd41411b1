package experiments

import (
	"fmt"
	"strings"

	"github.com/icn-gaming/gcopss/internal/sim"
	"github.com/icn-gaming/gcopss/internal/stats"
)

// Fig6Point is one x-axis position of Fig. 6.
type Fig6Point struct {
	Players         int
	GCOPSSLatencyMs float64
	ServerLatencyMs float64
	GCOPSSLoadGB    float64
	ServerLoadGB    float64
}

// Fig6Result is the scalability sweep: response latency (a) and aggregate
// network load (b) versus the number of players, with 3 RPs / 3 servers.
type Fig6Result struct {
	Provenance Provenance
	Points     []Fig6Point
}

// Fig6 sweeps player subsets of the peak-rate trace. The per-player update
// rate is constant, so the offered load scales with the player count; the
// servers hit their knee around 250 players while G-COPSS stays flat.
func Fig6(w *Workbench) (*Fig6Result, error) {
	n := scaleInt(100_000, w.Opts.Scale, 8000)
	base := w.steadyUpdates(n)
	costs := sim.PaperCosts()
	res := &Fig6Result{Provenance: w.Opts.provenance()}

	defer func() {
		_ = w.Env.RestrictPlayers(nil) // restore full visibility for later experiments
	}()
	for _, players := range []int{50, 100, 150, 200, 250, 300, 350, 400} {
		mask, ups := sim.PlayerSubset(w.Trace, base, players, w.Opts.Seed)
		if err := w.Env.RestrictPlayers(mask); err != nil {
			return nil, err
		}
		gc, err := sim.GCOPSSConfig{
			RPs:   sim.DefaultRPPlacement(w.Env, 3),
			Costs: costs,
		}.Run(w.Env, ups)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6 gcopss %d players: %w", players, err)
		}
		srv, err := sim.ServerConfig{
			Servers: sim.DefaultServerPlacement(w.Env, 3),
			Costs:   costs,
		}.Run(w.Env, ups)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6 server %d players: %w", players, err)
		}
		res.Points = append(res.Points, Fig6Point{
			Players:         players,
			GCOPSSLatencyMs: gc.LatencyMeanMs,
			ServerLatencyMs: srv.LatencyMeanMs,
			GCOPSSLoadGB:    gc.Bytes / 1e9,
			ServerLoadGB:    srv.Bytes / 1e9,
		})
	}
	return res, nil
}

// Render formats both panels.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6 — scalability with player count (3 RPs / 3 servers, peak rate; %s)\n", r.Provenance)
	tbl := &stats.Table{Headers: []string{"players", "G-COPSS latency", "IP-server latency", "G-COPSS load (GB)", "IP-server load (GB)"}}
	for _, p := range r.Points {
		tbl.AddRow(
			fmt.Sprintf("%d", p.Players),
			stats.Ms(p.GCOPSSLatencyMs),
			stats.Ms(p.ServerLatencyMs),
			fmt.Sprintf("%.3f", p.GCOPSSLoadGB),
			fmt.Sprintf("%.3f", p.ServerLoadGB),
		)
	}
	b.WriteString(tbl.String())
	return b.String()
}
