package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/icn-gaming/gcopss/internal/stats"
	"github.com/icn-gaming/gcopss/internal/testbed"
)

// Fig4Result is the microbenchmark: update-latency CDFs of G-COPSS, the
// NDN query/response solution, and the IP server, on the 6-router testbed.
type Fig4Result struct {
	Provenance Provenance
	GCOPSS     *testbed.MicroResult
	NDN        *testbed.MicroResult
	IP         *testbed.MicroResult
}

// Fig4 runs the three-system microbenchmark. The trace duration scales with
// opts.Scale (the paper runs 10 minutes).
func Fig4(opts Options) (*Fig4Result, error) {
	opts.normalize()
	duration := time.Duration(float64(10*time.Minute) * maxf(opts.Scale, 0.05))
	s, err := testbed.ScaledSetup(duration, opts.Seed)
	if err != nil {
		return nil, err
	}
	s.Tracer = opts.Trace
	res := &Fig4Result{Provenance: opts.provenance()}
	if res.GCOPSS, err = testbed.RunGCOPSS(s); err != nil {
		return nil, fmt.Errorf("experiments: fig4 gcopss: %w", err)
	}
	if res.IP, err = testbed.RunIPServer(s); err != nil {
		return nil, fmt.Errorf("experiments: fig4 ip: %w", err)
	}
	if res.NDN, err = testbed.RunNDN(s); err != nil {
		return nil, fmt.Errorf("experiments: fig4 ndn: %w", err)
	}
	return res, nil
}

// Render formats the latency summaries and CDF samples.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 4 — microbenchmark update-latency CDF (62 players, Fig. 3b topology; %s)\n", r.Provenance)
	tbl := &stats.Table{Headers: []string{"system", "published", "deliveries", "mean", "median", "p95", "max", ">55ms"}}
	row := func(name string, m *testbed.MicroResult) {
		tbl.AddRow(name,
			fmt.Sprintf("%d", m.Published),
			fmt.Sprintf("%d", m.Deliveries),
			stats.Ms(m.Latency.Mean()),
			stats.Ms(m.Latency.Median()),
			stats.Ms(m.Latency.Percentile(0.95)),
			stats.Ms(m.Latency.Max()),
			fmt.Sprintf("%.1f%%", m.Latency.FractionAbove(55)*100))
	}
	row("G-COPSS", r.GCOPSS)
	row("IP server", r.IP)
	row("NDN", r.NDN)
	b.WriteString(tbl.String())
	b.WriteString("CDF samples (latency at given percentile):\n")
	b.WriteString("  pct     G-COPSS   IP-server   NDN\n")
	for _, pct := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		fmt.Fprintf(&b, "  %4.0f%%  %9s  %9s  %9s\n", pct*100,
			stats.Ms(r.GCOPSS.Latency.Percentile(pct)),
			stats.Ms(r.IP.Latency.Percentile(pct)),
			stats.Ms(r.NDN.Latency.Percentile(pct)))
	}
	return b.String()
}
