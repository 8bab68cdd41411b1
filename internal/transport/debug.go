package transport

import (
	"context"
	"io"
	"net"
	"net/http"

	"github.com/icn-gaming/gcopss/internal/core"
	"github.com/icn-gaming/gcopss/internal/obs"
	"github.com/icn-gaming/gcopss/internal/obs/trace"
)

// DebugHandler returns the daemon's runtime debug endpoint: /metrics
// (Prometheus text exposition of the router's registry), /flight?n= (text
// dump of the router's own packet-path ring), /debug/trace (Chrome
// trace-event JSON of the traced records in the same ring) and
// /debug/pprof/*. /flight and /debug/trace answer 404 when the router has
// no tracer. Exposition and dumps execute on the daemon's event loop via
// Inspect — GaugeFunc callbacks read loop-owned tables (ST, RP table, PIT)
// — so the handler must only serve while Run is running.
func (d *Daemon) DebugHandler() http.Handler {
	metrics := func(w io.Writer) {
		d.Inspect(func(r *core.Router) {
			r.Obs().WriteText(w) //nolint:errcheck // exposition write failure surfaces as a truncated scrape
		})
	}
	var flight func(io.Writer, int)
	var traceDump func(io.Writer)
	if d.router.Tracer() != nil {
		flight = func(w io.Writer, n int) {
			d.Inspect(func(r *core.Router) {
				r.Tracer().Ring(r.Name()).Dump(w, n) //nolint:errcheck // same as exposition
			})
		}
		traceDump = func(w io.Writer) {
			d.Inspect(func(r *core.Router) {
				// No scheduler profile in the live daemon — the profiler
				// belongs to the discrete-event testbed.
				trace.WriteChromeTrace(w, r.Tracer()) //nolint:errcheck // same as exposition
			})
		}
	}
	return obs.NewDebugMux(metrics, flight, traceDump)
}

// ServeDebug serves DebugHandler on addr until ctx is cancelled. It returns
// the bound address (addr may use port 0).
func (d *Daemon) ServeDebug(ctx context.Context, addr string) (net.Addr, error) {
	return obs.ServeDebug(ctx, addr, d.DebugHandler(), d.logf)
}
